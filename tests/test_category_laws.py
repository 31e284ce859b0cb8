"""Category laws for bisimulation maps, on seeded random systems and on both
routes: the filler check on the lifted presheaves and the concrete check.

Checked here: the identity is accepted in strong and fair modes, and for a
system without silent steps the map onto its ``branching_quotient`` is
accepted in strong mode, and so is its composite with the quotient map of
that quotient.  The branching modes are left out: the concrete route refuses
the identity on some silent cycles by its stutter clause (ROADMAP item 12),
and the filler route on some silent self-loops (item 3)."""

import random

from bisimap import branching_quotient, check_bisim_map

from conftest import random_fair_system, random_lts


def _accepted(report) -> bool:
    return report.presheaf_verdict.holds and report.concrete_verdict.holds


def test_the_identity_is_a_strong_and_a_fair_map():
    rng = random.Random(1212)
    for i in range(150):
        X = random_lts(rng, 4, ("a", "b"), density=1.5)
        assert _accepted(check_bisim_map({s: s for s in X.states}, X, X, "strong", i % 4))
        FX = random_fair_system(rng, ("a", "b"))
        ident = {s: s for s in FX.lts.states}
        assert _accepted(check_bisim_map(ident, FX, FX, "fair", i % 3, 2, 2))


def test_quotient_maps_and_their_composite_are_strong_maps():
    rng = random.Random(1213)
    merged = 0
    for i in range(150):
        X = random_lts(rng, 5, ("a", "b"), density=1.5)
        Q, q = branching_quotient(X)
        R, r = branching_quotient(Q)
        merged += len(Q.states) < len(X.states)
        depth = i % 3 + 1
        assert _accepted(check_bisim_map(q, X, Q, "strong", depth))
        assert _accepted(check_bisim_map({x: r[q[x]] for x in X.states}, X, R, "strong", depth))
    assert merged > 30

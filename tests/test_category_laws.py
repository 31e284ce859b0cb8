"""Category laws for bisimulation maps, on seeded random systems and on both
routes: the filler check on the lifted presheaves and the concrete check.

Checked here: the identity is accepted in strong and fair modes, and for a
system without silent steps the map onto its ``branching_quotient`` is
accepted in strong mode, and so is its composite with the quotient map of
that quotient.  In the branching modes the identity falls into one of three
counted patterns: accepted on both routes; refused by ``check_bisim_map``'s
precondition with a ``stutter`` witness, since the concrete route's stutter
clause refuses the identity on silent cycles (ROADMAP item 12); or refused
by the filler route at a ``fiber`` square of a system with a silent
self-loop while the concrete route accepts (item 3)."""

import random
from collections import Counter

from bisimap import PreconditionError, branching_quotient, check_bisim_map
from bisimap.words import TAU

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


def _identity_pattern(X, mode, depth) -> str:
    try:
        report = check_bisim_map({s: s for s in X.states}, X, X, mode, depth)
    except PreconditionError as exc:
        return "stutter" if ": stutter: " in str(exc) else f"refused: {exc}"
    if _accepted(report):
        return "accepted"
    loop = any(lab is TAU and s == t for (s, lab, t) in X.transitions)
    square = report.presheaf_verdict.witness
    if report.concrete_verdict.holds and square.family == "fiber" and loop:
        return "fiber at a silent self-loop"
    return f"unexpected: {report}"


def test_the_identity_in_both_branching_modes_falls_into_three_patterns():
    rng = random.Random(1214)
    tally = {mode: Counter() for mode in ("branching", "branching_failed")}
    for i in range(400):
        X = random_lts(rng, 4, ("a", "b"), tau_prob=0.35, density=1.5)
        for mode, counts in tally.items():
            counts[_identity_pattern(X, mode, i % 4)] += 1
    for mode, counts in tally.items():
        assert set(counts) == {"accepted", "stutter", "fiber at a silent self-loop"}, (mode, counts)

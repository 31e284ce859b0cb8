"""Category laws for bisimulation maps, on seeded random systems and on both
routes: the filler check on the lifted presheaves and the concrete check.

Checked here: the identity is accepted in strong and fair modes, and for a
system without silent steps the map onto its ``branching_quotient`` is
accepted in strong mode, and so is its composite with the quotient map of
that quotient.  In the branching modes (``branching`` and
``branching_failed``), on silent systems of at most 4 states, each outcome
falls into a counted pattern:

* the identity is accepted on both routes; or refused by
  ``check_bisim_map``'s precondition with a ``stutter`` witness, since the
  concrete route's stutter clause refuses the identity on silent cycles
  (ROADMAP item 12); or refused by the filler route at a ``fiber`` square of
  a system with a silent self-loop while the concrete route accepts (item 3);
* the composite g∘f of two maps accepted on both routes is accepted;
* the map onto ``branching_quotient`` is accepted on both routes, or
  refused by the filler route at an ``extension`` or a ``fiber`` square,
  while the concrete route accepts, where the map collapses a silent step:
  the lift cuts executions at their raw length, silent steps included, so
  the execution a square asks for can lie beyond the depth (item 3);
* a map accepted by the concrete route relates each x to f(x) in
  ``branching_bisimilarity`` on the disjoint union of source and target.

In strong mode every accepted map relates each x to f(x) in the same way
(with no silent steps that is strong bisimilarity).  In fair mode, on
Streett systems of at most 3 states at bounds 2/2 and depths 1-3:

* the composite g∘f of two maps accepted on both routes is accepted;
* the map onto ``forall_fair_quotient`` is accepted on both routes, or
  refused by the filler route at a ``fiber``, ``extension`` or
  ``chain-limit`` square over a lasso trace while the (bounded) concrete
  route accepts: the quotient's lasso lies within the bounds, but the
  source runs the square asks for need a longer stem than the bound, so the
  lifted source lacks them (larger bounds move the witness to a longer
  lasso, or remove it)."""

import random
from collections import Counter

from bisimap import PreconditionError, branching_quotient, check_bisim_map
from bisimap.equiv import (
    PartitionRelation, branching_bisimilarity, check_forall_fair_bisim, forall_fair_quotient,
)
from bisimap.lts import FairLts, Lts, StreettSpec
from bisimap.words import TAU, LassoTrace

from conftest import block_map, image_system, random_fair_system, random_lts


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


BRANCHING_MODES = ("branching", "branching_failed")


def _random_silent_system(rng):
    return random_lts(rng, 4, ("a", "b"), tau_prob=0.35, density=1.5)


def _block_quotient(rng, X, prefix):
    """X quotiented by random blocks named ``<prefix><i>``, with induced
    steps and no silent step inside a block; returns (quotient, map)."""
    name = block_map(rng, X.states, prefix)
    return image_system(X, name), name


def _map_pattern(f, X, Y, mode, depth) -> str:
    """The outcome of ``check_bisim_map`` on f, named by its pattern.  The
    identity collapses exactly the silent self-loops."""
    try:
        report = check_bisim_map(f, X, Y, mode, depth)
    except PreconditionError as exc:
        return "stutter" if ": stutter: " in str(exc) else f"refused: {exc}"
    if _accepted(report):
        return "accepted"
    collapses = any(a is TAU and f[x] == f[y] for (x, a, y) in X.transitions)
    if report.concrete_verdict.holds and collapses:
        return f"{report.presheaf_verdict.witness.family} where f collapses a silent step"
    return f"unexpected: {report}"


def test_the_identity_in_both_branching_modes_falls_into_three_patterns():
    rng = random.Random(1214)
    tally = {mode: Counter() for mode in BRANCHING_MODES}
    for i in range(400):
        X = _random_silent_system(rng)
        for mode, counts in tally.items():
            counts[_map_pattern({s: s for s in X.states}, X, X, mode, i % 4)] += 1
    for mode, counts in tally.items():
        assert set(counts) == {"accepted", "stutter",
                               "fiber where f collapses a silent step"}, (mode, counts)


def test_composites_of_accepted_branching_maps_are_accepted():
    rng = random.Random(1215)
    tally = {mode: Counter() for mode in BRANCHING_MODES}
    for i in range(400):
        X = _random_silent_system(rng)
        Y, f = _block_quotient(rng, X, "y")
        Z, g = _block_quotient(rng, Y, "z")
        gf, depth = {x: g[f[x]] for x in X.states}, i % 4
        for mode, counts in tally.items():
            if _map_pattern(f, X, Y, mode, depth) == _map_pattern(g, Y, Z, mode, depth) == "accepted":
                counts[_map_pattern(gf, X, Z, mode, depth)] += 1
    for mode, counts in tally.items():
        assert set(counts) == {"accepted"} and counts["accepted"] > 100, (mode, counts)


def test_the_map_onto_the_branching_quotient_falls_into_three_patterns():
    rng = random.Random(1216)
    tally = {mode: Counter() for mode in BRANCHING_MODES}
    for i in range(400):
        X = _random_silent_system(rng)
        Q, q = branching_quotient(X)
        for mode, counts in tally.items():
            counts[_map_pattern(q, X, Q, mode, i % 4)] += 1
    for mode, counts in tally.items():
        assert set(counts) == {"accepted", "extension where f collapses a silent step",
                               "fiber where f collapses a silent step"}, (mode, counts)


def _disjoint_union(X, Y):
    """X and Y side by side, their states tagged ``x:`` and ``y:``."""
    states = [f"x:{s}" for s in X.states] + [f"y:{s}" for s in Y.states]
    steps = {(f"x:{s}", a, f"x:{t}") for (s, a, t) in X.transitions}
    steps |= {(f"y:{s}", a, f"y:{t}") for (s, a, t) in Y.transitions}
    return Lts.make(states, X.alphabet | Y.alphabet, steps)


def test_concretely_accepted_branching_maps_relate_bisimilar_states():
    rng = random.Random(1217)
    tally = {mode: Counter() for mode in BRANCHING_MODES}
    for i in range(400):
        X = _random_silent_system(rng)
        Y, f = _block_quotient(rng, X, "y")
        bisimilar = branching_bisimilarity(_disjoint_union(X, Y))
        related = all(bisimilar.contains(f"x:{x}", f"y:{f[x]}") for x in X.states)
        for mode, counts in tally.items():
            try:
                holds = check_bisim_map(f, X, Y, mode, i % 4).concrete_verdict.holds
            except PreconditionError:
                holds = False
            if not holds:
                counts["refused concretely"] += 1
            else:
                counts["bisimilar" if related else "false accept"] += 1
    for mode, counts in tally.items():
        assert set(counts) == {"bisimilar", "refused concretely"}, (mode, counts)


def test_accepted_strong_maps_relate_bisimilar_states():
    rng = random.Random(1220)
    tally = Counter()
    for i in range(400):
        X = random_lts(rng, 4, ("a", "b"), density=1.5)
        Y, f = branching_quotient(X) if i % 2 else _block_quotient(rng, X, "y")
        bisimilar = branching_bisimilarity(_disjoint_union(X, Y))
        related = all(bisimilar.contains(f"x:{x}", f"y:{f[x]}") for x in X.states)
        if not _accepted(check_bisim_map(f, X, Y, "strong", i % 3 + 1)):
            tally["refused"] += 1
        else:
            tally["bisimilar" if related else "false accept"] += 1
    assert set(tally) == {"bisimilar", "refused"}, tally


def _random_streett_system(rng) -> FairLts:
    lts = random_lts(rng, 3, ("a", "b"), density=1.8)

    def some():
        return frozenset(s for s in lts.states if rng.random() < 0.5)

    return FairLts(lts, StreettSpec(tuple((some(), some()) for _ in range(rng.randint(0, 2)))))


def _fair_image(rng, X: FairLts):
    """X merged by its strong bisimilarity (``branching_quotient``, as X has
    no silent steps) or by random blocks, with each Streett pair imaged;
    returns (image, map)."""
    Y, name = branching_quotient(X.lts) if rng.random() < 0.5 else _block_quotient(rng, X.lts, "b")
    pairs = tuple((frozenset(map(name.get, L)), frozenset(map(name.get, U)))
                  for (L, U) in X.fairness.pairs)
    return FairLts(Y, StreettSpec(pairs)), name


def _fair_pattern(f, X, Y, depth) -> str:
    """The outcome of ``check_bisim_map`` in fair mode at bounds 2/2."""
    try:
        report = check_bisim_map(f, X, Y, "fair", depth, 2, 2)
    except PreconditionError:
        return "refused as no fair simulation"
    if _accepted(report):
        return "accepted"
    square = report.presheaf_verdict.witness
    if report.concrete_verdict.holds and isinstance(square.about[0], LassoTrace):
        return f"{square.family} over a lasso trace"
    return f"unexpected: {report}"


def test_composites_of_accepted_fair_maps_are_accepted():
    rng = random.Random(1218)
    tally = Counter()
    for i in range(300):
        X = _random_streett_system(rng)
        Y, f = _fair_image(rng, X)
        Z, g = _fair_image(rng, Y)
        depth = i % 3 + 1
        if _fair_pattern(f, X, Y, depth) == _fair_pattern(g, Y, Z, depth) == "accepted":
            tally[_fair_pattern({x: g[f[x]] for x in X.lts.states}, X, Z, depth)] += 1
    assert set(tally) == {"accepted"} and tally["accepted"] > 100, tally


def test_the_map_onto_the_forall_fair_quotient_falls_into_four_patterns():
    rng = random.Random(1219)
    tally = Counter()
    for i in range(300):
        X = _random_streett_system(rng)
        if i % 3 == 0:
            R = branching_bisimilarity(X.lts)
        else:
            k = rng.randint(1, len(X.lts.states))
            R = PartitionRelation.kernel_of({s: rng.randrange(k) for s in X.lts.states}, X.lts.states)
        if not check_forall_fair_bisim(R, X, "exact_streett", 2, 2).holds:
            continue
        Q, q = forall_fair_quotient(R, X, "exact_streett", 2, 2)
        tally[_fair_pattern(q, X, Q, i % 3 + 1)] += 1
    assert set(tally) == {"accepted", "fiber over a lasso trace", "extension over a lasso trace",
                          "chain-limit over a lasso trace"}, tally
    assert tally["accepted"] > 100, tally

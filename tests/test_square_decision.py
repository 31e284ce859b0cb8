"""The fast square decision against its slow oracles.

``is_bisim_map_bounded`` decides each stream square at its generator
(``StreamSquare.has_filler``); the generic backtracking ``find_filler`` must
agree on every square, and a loop of generic searches over the same stream
must give the same verdict and witness.  The stream itself is compared with a
direct enumeration of its ``about`` data.  The preimage restrictions each
square carries are held to composing the restrictions square by square, and
the branching lift's components to imaging each execution step by step.

The stream has no square whose Q has two generators: over the chain-shaped
bases it runs on, such a square is filled once the stream's squares are.  The
old ``pair`` family, at its old stage and support bounds, is kept here as an
oracle that holds the stream to that claim.
"""

import random
from collections import Counter

import pytest

from bisimap.equiv import PartitionRelation, branching_quotient, quotient_lts
from bisimap.errors import PreconditionError
from bisimap.lts import FairLts, Lts, StreettSpec, is_simulation
from bisimap.presheaf import (
    MonoSquare,
    NatTrans,
    StreamSquare,
    enumerate_mono_squares,
    find_filler,
    is_bisim_map_bounded,
)
from bisimap.semantics import (
    branching_sem_map,
    branching_simulation_violation,
    fair_sem_map,
    fair_simulation_violation,
    strong_sem_map,
)
from bisimap.words import TAU, TAU_BAR, LassoTrace, Word, element_key

from conftest import build_square, random_lts, random_total_map
from oracles import (
    empty_presheaf,
    filler_by_restriction,
    inclusion,
    map_pf,
    poset_leq,
    sub_presheaf,
)

DEPTH = 3
# (stage bound, support bound) settings of the pair-square oracle
PAIR_BOUNDS = ((2, 6), (1, 4))


def _random_partition_map(rng, X):
    k = rng.randint(1, len(X.states))
    return {s: f"b{rng.randrange(k)}" for s in X.states}


def strong_maps(rng, count, depth=DEPTH):
    while count:
        X = random_lts(rng, 3, ("a", "b"), density=1.4)
        if rng.random() < 0.3:
            blocks = _random_partition_map(rng, X)
            rel = PartitionRelation(X.states, frozenset(
                (a, b) for a in X.states for b in X.states if blocks[a] == blocks[b]))
            Y, f = quotient_lts(X, rel)
            maps = [f]
        else:
            Y = X if rng.random() < 0.5 else random_lts(rng, 3, ("a", "b"), density=1.4)
            maps = [random_total_map(rng, X, Y) for _ in range(4)]
        for f in maps:
            if count and is_simulation(f, X, Y)[0]:
                count -= 1
                yield strong_sem_map(f, X, Y, depth)


def _with_silent_loops(rng, X):
    loops = frozenset((s, TAU, s) for s in X.states if rng.random() < 0.3)
    return Lts(X.states, X.alphabet, X.transitions | loops)


def branching_lifts(rng, count, depth=DEPTH, silent_loops=False):
    """(f, source, target, lift, quotient) for random branching simulations,
    ``quotient`` telling a branching quotient map from a random one; with
    ``silent_loops`` the random systems gain silent self-loops."""

    def draw():
        X = random_lts(rng, 3, ("a", "b"), tau_prob=0.35, density=1.5)
        return _with_silent_loops(rng, X) if silent_loops else X

    while count:
        X = draw()
        quotient = rng.random() < 0.4
        if quotient:
            Y, f = branching_quotient(X)
            maps = [f]
        else:
            Y = draw()
            maps = [random_total_map(rng, X, Y) for _ in range(4)]
        for f in maps:
            try:
                if branching_simulation_violation(f, X, Y) is not None:
                    continue
            except PreconditionError:
                continue
            if count:
                count -= 1
                lifted = branching_sem_map(f, X, Y, depth, with_stretch=rng.random() < 0.7)
                yield f, X, Y, lifted, quotient


def branching_maps(rng, count):
    return (lifted for (_, _, _, lifted, _) in branching_lifts(rng, count))


def _streett(rng, lts):
    pairs = []
    for _ in range(rng.randint(0, 2)):
        L = frozenset(s for s in lts.states if rng.random() < 0.5)
        U = frozenset(s for s in lts.states if rng.random() < 0.5)
        pairs.append((L, U))
    return FairLts(lts, StreettSpec(tuple(pairs)))


def fair_maps(rng, count):
    while count:
        X = _streett(rng, random_lts(rng, 3, ("a", "b"), density=1.8))
        Y = X if rng.random() < 0.3 else _streett(rng, random_lts(rng, 2, ("a", "b"), density=1.8))
        for f in [random_total_map(rng, X.lts, Y.lts) for _ in range(4)]:
            try:
                if fair_simulation_violation(f, X, Y, 2, 2) is not None:
                    continue
            except PreconditionError:
                continue
            if count:
                count -= 1
                yield fair_sem_map(f, X, Y, DEPTH, 2, 2)


SAMPLES = {
    "strong": (strong_maps, 2024, 40),
    "branching": (branching_maps, 2025, 30),
    "fair": (fair_maps, 2026, 16),
}


def generic_bounded(f):
    """``is_bisim_map_bounded`` as a loop of generic filler searches."""
    for square in enumerate_mono_squares(f):
        if find_filler(build_square(square)) is None:
            return False, square
    return True, None


def reference_stream(f):
    """The (family, about) data of the stream, by direct enumeration: every
    generator and every proper lower stage."""
    F, G = f.source, f.target
    base = G.base
    budget = max((len(e) for e in base.elements if isinstance(e, Word)), default=0)
    gens = [(e, w) for e in sorted(base.elements, key=element_key) for w in G.stage(e)]
    out = []
    for (e, w) in gens:
        out.append(("fiber", (e, w)))
        below = sorted(base.strictly_below(e), key=element_key)
        for e2 in below:
            for x in F.stage(e2):
                if f.at(e2, x) != G.restrict(w, e, e2):
                    continue
                trace = getattr(x, "trace", None)
                if (isinstance(e, Word) and isinstance(e2, Word) and trace is not None
                        and len(trace) + len(e) - len(e2) > budget):
                    continue
                limit = isinstance(e, LassoTrace) and e2 == below[-1]
                out.append(("chain-limit" if limit else "extension", (e, w, e2, x)))
    return out


def reference_pairs(f, stage_bound, support_bound):
    """The about data (e1, w1, e2, w2) of the old pair squares: two
    generators at incomparable stages whose down-sets together have at most
    ``support_bound`` elements, with at most ``stage_bound`` values in each
    stage of the Q they generate."""
    G = f.target
    base = G.base
    gens = [(e, w) for e in sorted(base.elements, key=element_key) for w in G.stage(e)]
    out = []
    for i, (e1, w1) in enumerate(gens):
        for (e2, w2) in gens[i + 1:]:
            if poset_leq(base, e1, e2) or poset_leq(base, e2, e1):
                continue
            support = set(base.down(e1)) | set(base.down(e2))
            if len(support) > support_bound:
                continue
            sizes = [
                len({G.restrict(w, e, s) for (e, w) in ((e1, w1), (e2, w2)) if poset_leq(base, s, e)})
                for s in support
            ]
            if max(sizes) <= stage_bound:
                out.append((e1, w1, e2, w2))
    return out


def pair_square(f, about) -> MonoSquare:
    """The pair square: Q generated by two target elements, P empty."""
    e1, w1, e2, w2 = about
    G = f.target
    Q = sub_presheaf(G, [(e1, w1), (e2, w2)])
    P0 = empty_presheaf(G.base)
    return MonoSquare(g=NatTrans(P0, Q, {}), m=NatTrans(P0, f.source, {}),
                      n=inclusion(Q, G), f=f, family="pair", about=about)


@pytest.mark.parametrize("mode", sorted(SAMPLES))
def test_generator_decision_matches_generic_search(mode):
    make, seed, count = SAMPLES[mode]
    outcomes = Counter()
    verdicts = Counter()
    split_pairs = 0
    for lifted in make(random.Random(seed), count):
        stream = list(enumerate_mono_squares(lifted))
        assert [(sq.family, sq.about) for sq in stream] == reference_stream(lifted)
        first_failure = None
        for square in stream:
            fast = square.has_filler()
            assert fast == (find_filler(build_square(square)) is not None), (
                square.family, square.about)
            outcomes[square.family, fast] += 1
            if not fast and first_failure is None:
                first_failure = (square.family, square.about)

        ok, witness = is_bisim_map_bounded(lifted)
        ok_ref, witness_ref = generic_bounded(lifted)
        assert ok == ok_ref
        verdicts[ok] += 1
        if ok:
            assert witness is None
        else:
            assert isinstance(witness, StreamSquare)
            assert (witness.family, witness.about) == (witness_ref.family, witness_ref.about)
            assert build_square(witness) == build_square(witness_ref)
            assert str(witness) == str(witness_ref)
            assert find_filler(build_square(witness)) is None

        for bounds in PAIR_BOUNDS:
            # the old stream: this stream, then the pair squares
            old_first = first_failure
            for about in reference_pairs(lifted, *bounds):
                if find_filler(pair_square(lifted, about)) is not None:
                    continue
                assert not ok, ("accepted, but a pair square has no filler", about)
                old_first = old_first or ("pair", about)
                e1, w1, e2, w2 = about
                # both generators lift, but no two lifts agree
                split_pairs += bool(lifted.fiber(e1, w1) and lifted.fiber(e2, w2))
            assert old_first == (None if ok else (witness.family, witness.about))
    assert verdicts[True] and verdicts[False]
    # the fair sample has none: its pair squares fail only on an empty fiber;
    # elsewhere they exist, and an earlier square of the stream always fails
    assert split_pairs or mode == "fair"
    families = ("fiber", "extension") + (("chain-limit",) if mode == "fair" else ())
    for family in families:
        assert outcomes[family, True] and outcomes[family, False], (family, outcomes)


# ---------------------------------------------------------------------------
# The data the stream and the branching lift carry, against per-square and
# per-execution oracles, on maps lifted at depth 4

CARRIED_DEPTH = 4


def _runs_a_silent_loop(lifted):
    return any(lab is TAU and a == b
               for stage in lifted.source.stages.values() for p in stage
               for (a, lab, b) in zip(p.states, p.trace, p.states[1:]))


@pytest.fixture(scope="module")
def carried_samples():
    """300 seeded random branching maps, between systems with silent
    self-loops, as ``branching_lifts`` yields them, and 300 strong lifts."""
    branching = list(branching_lifts(random.Random(2027), 300, CARRIED_DEPTH, silent_loops=True))
    strong = list(strong_maps(random.Random(2028), 300, CARRIED_DEPTH))
    return branching, strong


def test_carried_restrictions_decide_as_composed_restrictions(carried_samples):
    branching, strong = carried_samples
    assert sum(map(_runs_a_silent_loop, (lifted for (_, _, _, lifted, _) in branching))) > 100
    for mode, lifts in (("branching", [lifted for (_, _, _, lifted, _) in branching]),
                        ("strong", strong)):
        outcomes = Counter()
        for lifted in lifts:
            for square in enumerate_mono_squares(lifted):
                decided = square.has_filler()
                assert decided == filler_by_restriction(square), (mode, str(square))
                outcomes[square.family, decided] += 1
        for family in ("fiber", "extension"):
            assert outcomes[family, True] and outcomes[family, False], (mode, outcomes)


def test_lifted_components_are_the_step_by_step_images(carried_samples):
    branching, _ = carried_samples
    collapsing = 0
    for (f, _, Y, lifted, _) in branching:
        for e, table in lifted.comp.items():
            for p, image in table.items():
                assert image == map_pf(f, p, Y), (e, str(p))
                collapsing += len(image.trace) < len(p.trace)
    assert collapsing
    # the tree map at depths 0-5, with and without silent self-loops
    seen = Counter()
    rng = random.Random(2029)
    for depth in range(6):
        for silent_loops in (False, True):
            for (f, X, Y, lifted, quotient) in branching_lifts(rng, 20, depth, silent_loops):
                seen["quotient" if quotient else "random"] += 1
                seen["stretch" if TAU_BAR in lifted.source.base.parent else "plain"] += 1
                seen["depth", depth] += bool(lifted.comp)
                seen["silent loop"] += any(lab is TAU and a == b for (a, lab, b) in X.transitions)
                for e, table in lifted.comp.items():
                    stage = set(lifted.target.stage(e))
                    for p, image in table.items():
                        assert image == map_pf(f, p, Y), (e, str(p))
                        assert image in stage, (e, str(p))
                        for (a, lab, b) in zip(p.states, p.trace, p.states[1:]):
                            if lab is TAU:
                                seen["collapsed" if f[a] == f[b] else "kept"] += 1
    for key in ("quotient", "random", "stretch", "plain", "silent loop", "collapsed", "kept"):
        assert seen[key], (key, seen)
    assert all(seen["depth", depth] for depth in range(6)), seen

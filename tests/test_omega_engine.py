"""Oracle checks for the infinite-run engines: the end-component /
positional-automaton analysis must agree with brute-force lasso enumeration
on small graphs, and every produced witness must satisfy the conditions it
claims to witness."""

import random

from bisimap.equiv import (
    ImageFairness, PartitionRelation, check_fair_bisim_fn, check_fair_reflection, check_fair_sim,
    check_forall_fair_bisim, check_hildebrandt_open, exists_fair_run, exists_violating_run,
)
from bisimap.errors import PreconditionError
from bisimap.lts import (
    AlwaysAfterSpec, FairLts, Lts, StreettSpec, adjacency, enumerate_graph_lassos, format_witness,
)

from conftest import lts_of, random_fair_system, random_fairness
from oracles import (
    fair_bisim_fn_per_direction, fair_reflection_per_direction, fair_sim_per_direction,
    forall_fair_bisim_per_direction, hildebrandt_open_by_node_lifts, image_is_fair,
)


def same(node):
    return node


def lasso_satisfies(lasso, spec):
    if isinstance(spec, StreettSpec):
        cyc = lasso.cycle_states
        return all(not (cyc & L) or (cyc & U) for (L, U) in spec.pairs)
    g = len(spec.gate)
    if tuple(lasso.label_at(i) for i in range(g)) != tuple(spec.gate):
        return True
    for i in range(spec.offset, len(lasso.stem.trace) + 1):
        if lasso.stem.states[i] not in spec.allowed:
            return False
    return all(st in spec.allowed for st in lasso.cycle_states)


def random_spec(rng, nodes, labels):
    if rng.random() < 0.5:
        pairs = tuple(
            (
                frozenset(n for n in nodes if rng.random() < 0.5),
                frozenset(n for n in nodes if rng.random() < 0.5),
            )
            for _ in range(rng.randint(0, 2))
        )
        return StreettSpec(pairs)
    gate = tuple(rng.choice(labels) for _ in range(rng.randint(0, 1)))
    return AlwaysAfterSpec(
        rng.randint(0, 1),
        frozenset(n for n in nodes if rng.random() < 0.6),
        gate,
    )


def random_graph(rng):
    nodes = [f"n{i}" for i in range(rng.randint(1, 3))]
    labels = ("a", "b")
    edges = {}
    for u in nodes:
        outs = {
            (rng.choice(labels), rng.choice(nodes))
            for _ in range(rng.randint(0, 3))
        }
        edges[u] = tuple(sorted(outs))
    return nodes, labels, edges


def test_violating_run_engine_matches_lasso_oracle():
    rng = random.Random(505)
    for _ in range(150):
        nodes, labels, edges = random_graph(rng)
        A = random_spec(rng, nodes, labels)
        B = random_spec(rng, nodes, labels)
        engine = exists_violating_run(nodes, edges.__getitem__, (A, same), (B, same))
        oracle = next(
            (
                l
                for l in enumerate_graph_lassos(nodes, edges, 4, 6)
                if lasso_satisfies(l, A) and not lasso_satisfies(l, B)
            ),
            None,
        )
        assert (engine is None) == (oracle is None), (nodes, edges, A, B)
        if engine is not None:
            assert lasso_satisfies(engine, A)
            assert not lasso_satisfies(engine, B)


def test_fair_run_engine_matches_lasso_oracle():
    rng = random.Random(606)
    for _ in range(150):
        nodes, labels, edges = random_graph(rng)
        spec = random_spec(rng, nodes, labels)
        starts = [x for x in nodes if rng.random() < 0.7]
        engine = exists_fair_run(starts, edges.__getitem__, (spec, same))
        oracle = next(
            (
                l
                for l in enumerate_graph_lassos(nodes, edges, 4, 6)
                if l.stem.start in starts and lasso_satisfies(l, spec)
            ),
            None,
        )
        assert (engine is None) == (oracle is None), (nodes, edges, spec, starts)
        if engine is not None:
            assert engine.stem.start in starts
            assert lasso_satisfies(engine, spec)


def test_fair_component_found_only_inside_a_refined_component():
    # p -a-> p, p -a-> q, q -a-> p: the component {p, q} meets L = {q} of
    # the pair (L, U) = ({q}, {}), so only the self-loop at p, left once q
    # is removed, is fair; the bounded search finds the same lasso first
    lts = lts_of([("p", "a", "p"), ("p", "a", "q"), ("q", "a", "p")])
    nodes, adj = lts.states, adjacency(lts)
    avoid_q = StreettSpec(((frozenset({"q"}), frozenset()),))
    avoid_p = StreettSpec(((frozenset({"p"}), frozenset()),))
    bounded = list(enumerate_graph_lassos(nodes, adj, 4, 6))

    fair = exists_fair_run(nodes, adj.__getitem__, (avoid_q, same))
    assert str(fair) == "p (loop: -a-> p)"
    assert fair == next(l for l in bounded if lasso_satisfies(l, avoid_q))
    violating = exists_violating_run(nodes, adj.__getitem__, (avoid_q, same), (avoid_p, same))
    assert violating == fair == next(
        l for l in bounded if lasso_satisfies(l, avoid_q) and not lasso_satisfies(l, avoid_p)
    )

    ident = {s: s for s in nodes}
    X, Y = FairLts(lts, avoid_q), FairLts(lts, avoid_p)
    exact = check_fair_bisim_fn(ident, X, Y, "exact_streett")
    assert exact.witness == ("unfair-image", (fair, fair))
    assert check_fair_bisim_fn(ident, X, Y, "bounded").witness == exact.witness


def _image_system(rng, X, labels):
    """A system that a random map of X's states is a simulation onto (the
    image of X's steps), with random fairness, and that map."""
    k = rng.randint(1, len(X.lts.states))
    f = {x: f"t{rng.randrange(k)}" for x in X.lts.states}
    lts = Lts.make(sorted(set(f.values())), X.lts.alphabet,
                   {(f[x], a, f[x2]) for (x, a, x2) in X.lts.transitions})
    return FairLts(lts, random_fairness(rng, lts, labels)), f


def _outcome(check, *args):
    try:
        verdict = check(*args)
    except PreconditionError as exc:
        return ("raised", str(exc))
    return (verdict, None if verdict.witness is None else format_witness(verdict.witness))


def test_one_product_per_check_matches_the_per_direction_engine():
    # the library decides both transfer directions of a check on one product
    # graph, ranked once; the oracle builds a fresh product per direction and
    # sorts by _node_key in every component search: verdicts, witnesses and
    # witness text must be equal, in both modes
    rng = random.Random(2121)
    tags = set()
    for i in range(500):
        labels = ("a",) if i % 2 else ("a", "b")
        X = random_fair_system(rng, labels)
        if rng.random() < 0.5:
            Y, f = _image_system(rng, X, labels)
        else:
            Y = random_fair_system(rng, labels)
            f = {x: rng.choice(Y.lts.states) for x in X.lts.states}
        k = rng.randint(1, 2)
        blocks = {x: rng.randrange(k) for x in X.lts.states}
        R = PartitionRelation(X.lts.states, frozenset(
            (x, y) for x in X.lts.states for y in X.lts.states if blocks[x] == blocks[y]))
        for mode in ("exact_streett", "bounded"):
            for (check, oracle, args) in (
                (check_fair_bisim_fn, fair_bisim_fn_per_direction, (f, X, Y, mode, 2, 3)),
                (check_fair_reflection, fair_reflection_per_direction, (f, X, Y, mode, 2, 3)),
                (check_forall_fair_bisim, forall_fair_bisim_per_direction, (R, X, mode, 2, 3)),
            ):
                got = _outcome(check, *args)
                assert got == _outcome(oracle, *args), (check.__name__, X, Y, f, mode)
                if got[0] != "raised" and not got[0].holds:
                    tags.add((mode, got[0].witness[0]))
    assert {(mode, tag) for mode in ("exact_streett", "bounded") for tag in (
        "unfair-image", "chain-with-fair-image-but-no-fair-limit", "fairness-not-transferred",
    )} <= tags, tags


def _random_map(rng, X, labels):
    if rng.random() < 0.5:
        return _image_system(rng, X, labels)
    Y = random_fair_system(rng, labels)
    return Y, {x: rng.choice(Y.lts.states) for x in X.lts.states}


def test_lifted_runs_match_the_node_level_lift():
    # the library steps the source and a lasso's positions in one successor
    # function and reads the source's condition on each node's state; the
    # oracle lifts the condition to the node pairs and builds the synchronous
    # product's successor lists first: image fairness and openness verdicts,
    # witnesses and witness text must be equal
    rng = random.Random(2323)
    answers, outcomes = set(), set()
    for i in range(320):
        labels = ("a",) if i % 2 else ("a", "b")
        X = random_fair_system(rng, labels)
        Y, f = _random_map(rng, X, labels)
        fair = ImageFairness(X, tuple(sorted(f.items())))
        for lasso in enumerate_graph_lassos(Y.lts.states, adjacency(Y.lts), 2, 3):
            got = fair.is_fair(lasso)
            assert got == image_is_fair(X, f, lasso), (X, Y, f, lasso)
            answers.add((type(X.fairness).__name__, got))
        got = _outcome(check_hildebrandt_open, f, X, Y, 2, 3)
        assert got == _outcome(hildebrandt_open_by_node_lifts, f, X, Y, 2, 3), (X, Y, f)
        outcomes.add("raised" if got[0] == "raised" else got[0].holds or got[0].witness[0])
    assert {(kind, ok) for kind in ("StreettSpec", "AlwaysAfterSpec") for ok in (True, False)} <= answers
    assert {"raised", True, "no-reflection", "unliftable-fair-run"} <= outcomes, outcomes


def test_fair_sim_matches_the_bounded_preservation_direction():
    # check_fair_sim reads fair_simulation_violation; the oracle decides the
    # preservation direction of the per-direction engine in bounded mode
    rng = random.Random(2424)
    holding = 0
    for i in range(300):
        labels = ("a",) if i % 2 else ("a", "b")
        X = random_fair_system(rng, labels)
        Y, f = _random_map(rng, X, labels)
        got = check_fair_sim(f, X, Y, 2, 3)
        assert got == fair_sim_per_direction(f, X, Y, 2, 3), (X, Y, f)
        holding += got.holds
    assert 30 < holding < 270, holding

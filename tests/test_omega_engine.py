"""Oracle checks for the infinite-run engines: the end-component /
positional-automaton analysis must agree with brute-force lasso enumeration
on small graphs, and every produced witness must satisfy the conditions it
claims to witness."""

import random

from bisimap.equiv import check_fair_bisim_fn, exists_fair_run, exists_violating_run
from bisimap.lts import AlwaysAfterSpec, FairLts, StreettSpec, adjacency, enumerate_graph_lassos

from conftest import lts_of


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
        engine = exists_violating_run(nodes, edges, A, B)
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
        engine = exists_fair_run(nodes, edges, spec, starts)
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

    fair = exists_fair_run(nodes, adj, avoid_q)
    assert str(fair) == "p (loop: -a-> p)"
    assert fair == next(l for l in bounded if lasso_satisfies(l, avoid_q))
    violating = exists_violating_run(nodes, adj, avoid_q, avoid_p)
    assert violating == fair == next(
        l for l in bounded if lasso_satisfies(l, avoid_q) and not lasso_satisfies(l, avoid_p)
    )

    ident = {s: s for s in nodes}
    X, Y = FairLts(lts, avoid_q), FairLts(lts, avoid_p)
    exact = check_fair_bisim_fn(ident, X, Y, "exact_streett")
    assert exact.witness == ("unfair-image", (fair, fair))
    assert check_fair_bisim_fn(ident, X, Y, "bounded").witness == exact.witness

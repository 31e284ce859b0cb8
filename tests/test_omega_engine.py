"""The infinite-run engines on shapes the seeded rows of
``oracles.ORACLES`` rarely draw: a fair component found only once a
component is refined, and Streett pairs nested too deep for recursion."""

import inspect
import sys

from bisimap.equiv import check_fair_bisim_fn, exists_fair_run, exists_violating_run
from bisimap.lts import FairLts, StreettSpec, adjacency, enumerate_graph_lassos

from conftest import lts_of
from oracles import lasso_satisfies, same


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


def test_deeply_nested_streett_pairs_need_no_recursion():
    # a two-way a-chain s0 .. s299 whose source pairs nest 300 deep: s0 may
    # not recur, and s_i recurs only with s_(i-1); each refined component
    # breaks the next pair, so the search peels one state per level down to
    # nothing: no fair run, so the identity onto "every run unfair" holds.
    # Under a recursion limit 200 frames above the caller's, a search that
    # recursed once per level would raise RecursionError
    n = 300
    states = [f"s{i}" for i in range(n)]
    lts = lts_of([(states[i], "a", states[i + 1]) for i in range(n - 1)]
                 + [(states[i + 1], "a", states[i]) for i in range(n - 1)])
    nested = ((frozenset({"s0"}), frozenset()),) + tuple(
        (frozenset({states[i]}), frozenset({states[i - 1]})) for i in range(1, n))
    X = FairLts(lts, StreettSpec(nested))
    Y = FairLts(lts, StreettSpec(((frozenset(states), frozenset()),)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        verdict = check_fair_bisim_fn({s: s for s in states}, X, Y)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.holds

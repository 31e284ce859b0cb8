import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from bisimap import (
    Execution,
    Lasso,
    ParseError,
    PreconditionError,
    executions_up_to,
    fair_lassos,
    is_simulation,
    parse_aut,
    restrict,
    serialize_aut,
)
from bisimap.lts import (
    FairLts, Lts, StreettSpec, adjacency, enumerate_graph_lassos, execution_tree, reach,
)
from bisimap.words import EPSILON, TAU, Word

from conftest import enumerate_graph_lassos_recursive, lts_of, random_lts, weak_reach


# ---------------------------------------------------------------------------
# Parsing


def test_parse_smallest_file():
    lts = parse_aut('des (0,1,2)\n(0,"a",1)')
    assert len(lts.states) == 2
    assert len(lts.transitions) == 1
    assert not lts.has_tau


def test_parse_corpus_branch_file(corpus):
    combined = corpus.branch.combined
    assert len(combined.states) == 6
    assert len(combined.transitions) == 3
    assert combined.has_tau


def test_parse_out_of_range_state():
    with pytest.raises(ParseError):
        parse_aut('des (0,1,1)\n(0,"a",3)')


def test_parse_malformed_header():
    with pytest.raises(ParseError):
        parse_aut('des 0,1,1\n(0,"a",0)')


def test_parse_transition_count_mismatch():
    with pytest.raises(ParseError):
        parse_aut('des (0,2,1)\n(0,"a",0)')


def test_parse_duplicate_transition_warns_and_dedups():
    with pytest.warns(UserWarning):
        lts = parse_aut('des (0,2,1)\n(0,"a",0)\n(0,"a",0)')
    assert len(lts.transitions) == 1


def test_parse_tau_sets_flag():
    lts = parse_aut('des (0,1,2)\n(0,"tau",1)')
    assert lts.has_tau
    assert lts.alphabet == frozenset()


def test_has_tau_is_read_off_the_transitions():
    silent = Lts(("p", "q"), frozenset({"a"}), frozenset({("p", TAU, "q"), ("q", "a", "p")}))
    assert silent.has_tau
    assert not Lts(("p",), frozenset({"a"}), frozenset({("p", "a", "p")})).has_tau


def test_reach_includes_the_starts_and_stops_on_cycles():
    steps = {1: [2], 2: [3], 3: [1, 2], 4: [4], 5: []}.__getitem__
    assert reach([1], steps) == {1, 2, 3}
    assert reach([3], steps) == {1, 2, 3}
    assert reach([4], steps) == {4}
    assert reach([5, 4], steps) == {4, 5}
    assert reach([], steps) == set()


def test_roundtrip_on_corpus_files(corpus):
    for lts in corpus.plain_systems().values():
        again = parse_aut(serialize_aut(lts))
        # states are renumbered, so compare shapes through a canonical pass
        assert serialize_aut(again) == serialize_aut(lts)
        assert len(again.states) == len(lts.states)
        assert len(again.transitions) == len(lts.transitions)


# ---------------------------------------------------------------------------
# Executions


def test_executions_chain_depth_two(chain):
    stages = executions_up_to(chain, 2)
    ta = Word.of(TAU, "a")
    assert stages[ta] == frozenset(
        {Execution(ta, ("x0", "x1", "x2"))}
    )
    assert stages[Word.of("a")] == frozenset(
        {Execution(Word.of("a"), ("x1", "x2"))}
    )
    assert stages[EPSILON] == frozenset(
        {Execution.empty(s) for s in ("x0", "x1", "x2")}
    )
    # a word without executions gets no stage
    assert Word.of("a", "a") not in stages


def test_executions_depth_zero(chain):
    stages = executions_up_to(chain, 0)
    assert set(stages) == {EPSILON}
    assert len(stages[EPSILON]) == 3


def test_executions_branch_depth_one(corpus):
    stages = executions_up_to(corpus.branch.combined, 1)
    assert stages[Word.of("a")] == frozenset({
        Execution(Word.of("a"), ("x1", "x2")),
        Execution(Word.of("a"), ("y1", "y2")),
    })
    assert stages[Word.of(TAU)] == frozenset({
        Execution(Word.of(TAU), ("y1", "y3")),
    })


def test_execution_tree_nodes_carry_text_visible_word_and_anchor():
    rng = random.Random(1919)
    nodes = 0
    for i in range(40):
        lts = random_lts(rng, 4, ("a", "b"), tau_prob=0.4, density=1.5)
        depth = i % 5
        tree = execution_tree(lts, depth)
        walked = [p for (p, _, _, _) in tree]
        assert len(set(walked)) == len(walked)
        assert set(walked) == {p for ps in executions_up_to(lts, depth).values() for p in ps}
        assert [len(p.trace) for p in walked] == sorted(len(p.trace) for p in walked)
        for (p, text, visible, anchor) in tree:
            assert text == str(p)
            assert visible == p.trace.visible()
            # the longest proper prefix that is empty or ends in a visible step
            cut = max((n for n in range(len(p.trace))
                       if n == 0 or p.trace[n - 1] is not TAU), default=0)
            assert anchor == restrict(p, Word(p.trace[:cut]))
            nodes += 1
    assert nodes > 400


def test_restrict_examples(chain):
    p = Execution(Word.of(TAU, "a"), ("x0", "x1", "x2"))
    assert restrict(p, Word.of(TAU)) == Execution(Word.of(TAU), ("x0", "x1"))
    assert restrict(p, p.trace) == p
    with pytest.raises(PreconditionError):
        restrict(p, Word.of("a"))


@pytest.mark.parametrize("trace, states", [
    (Word.of("a"), ("x",)),
    (EPSILON, ("x", "y")),
])
def test_execution_needs_one_state_per_prefix(trace, states):
    with pytest.raises(PreconditionError):
        Execution(trace, states)


def test_execution_survives_pickle_and_deepcopy():
    p = Execution(Word.of("a", TAU), ("x", "y", "z"))
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p
    # the silent label stays one object, so words compare by it
    assert copy.deepcopy(TAU) is TAU and pickle.loads(pickle.dumps(TAU)) is TAU


def test_word_and_execution_reprs():
    # stage sorting breaks str ties by repr, and error texts embed reprs
    assert repr(Word.of("a", TAU)) == "Word(letters=('a', tau))"
    assert repr(Execution(Word.of("a"), ("x", "y"))) == (
        "Execution(trace=Word(letters=('a',)), states=('x', 'y'))"
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_restrict_functorial_on_random_systems(seed):
    rng = random.Random(seed)
    lts = random_lts(rng, 4, ("a", "b"), tau_prob=0.3)
    for w, execs in executions_up_to(lts, 3).items():
        for p in execs:
            assert restrict(p, p.trace) == p
            for mid in w.prefixes():
                for low in mid.prefixes():
                    assert restrict(restrict(p, mid), low) == restrict(p, low)


# ---------------------------------------------------------------------------
# Weak reachability


def _tau_closure_oracle(lts):
    # independent graph search: iterate matrix closure of the silent steps
    reach = {s: {s} for s in lts.states}
    changed = True
    while changed:
        changed = False
        for (x, lab, y) in lts.transitions:
            if lab is TAU:
                for s in lts.states:
                    if x in reach[s] and y not in reach[s]:
                        reach[s].add(y)
                        changed = True
    return {(s, t) for s in lts.states for t in reach[s]}


def test_weak_reach_chain(chain):
    rel = weak_reach(chain, 2)
    assert ("x0", EPSILON, "x1") in rel
    assert ("x0", Word.of("a"), "x2") in rel
    for s in chain.states:
        assert (s, EPSILON, s) in rel


def test_weak_reach_branch(corpus):
    rel = weak_reach(corpus.branch.combined, 1)
    assert ("y1", EPSILON, "y3") in rel
    assert ("y1", Word.of("a"), "y2") in rel
    assert ("y1", Word.of("a"), "y3") not in rel


def test_weak_reach_eps_slice_matches_independent_closure():
    rng = random.Random(7)
    for _ in range(20):
        lts = random_lts(rng, 5, ("a",), tau_prob=0.5, density=1.6)
        rel = weak_reach(lts, 0)
        eps_slice = {(x, y) for (x, w, y) in rel if w == EPSILON}
        assert eps_slice == _tau_closure_oracle(lts)


# ---------------------------------------------------------------------------
# Lassos


def test_fair_lassos_remark_system(corpus):
    src = corpus.fair_rem.source
    tagged = dict(fair_lassos(src, 2, 2))
    pure_x = Lasso(Execution.empty("x"), (("a", "x"),))
    via_xp = Lasso(Execution(Word.of("a"), ("x", "xp")), (("a", "xp"),))
    assert tagged[pure_x] is False
    assert tagged[via_xp] is True


def test_fair_lassos_union_system(corpus):
    sys = corpus.union_sys.system
    tagged = dict(fair_lassos(sys, 1, 2))
    alternating = Lasso(Execution.empty("x1"), (("a", "y1"), ("a", "x1")))
    constant = Lasso(Execution.empty("x2"), (("a", "x2"),))
    assert tagged[alternating] is True
    assert tagged[constant] is False


def test_fair_lassos_acyclic_system_empty(chain):
    acyclic = lts_of([("u", "a", "v")])
    fair = FairLts(acyclic, StreettSpec(()))
    assert fair_lassos(fair, 3, 3) == frozenset()


def test_fair_lassos_rejects_zero_cycle_bound(corpus):
    with pytest.raises(PreconditionError):
        fair_lassos(corpus.union_sys.system, 2, 0)


def test_graph_lassos_match_the_recursive_enumeration():
    rng = random.Random(341)
    for _ in range(300):
        lts = random_lts(rng, 4, ("a", "b"), density=rng.choice([1.0, 1.8, 2.5]))
        adj = adjacency(lts)
        stem_bound, cycle_bound = rng.randint(0, 3), rng.randint(1, 4)
        assert list(enumerate_graph_lassos(lts.states, adj, stem_bound, cycle_bound)) == \
            enumerate_graph_lassos_recursive(lts.states, adj, stem_bound, cycle_bound), lts


def test_graph_lassos_are_their_own_canonical_forms():
    rng = random.Random(342)
    for _ in range(300):
        lts = random_lts(rng, 4, ("a", "b"), density=rng.choice([1.0, 1.8, 2.5]))
        lassos = enumerate_graph_lassos(lts.states, adjacency(lts),
                                        rng.randint(0, 3), rng.randint(1, 4))
        assert all(lasso.canonical() == lasso for lasso in lassos), lts


def test_unrolled_rotated_and_powered_lassos_canonicalise_to_the_originals():
    rng = random.Random(343)
    for _ in range(200):
        lts = random_lts(rng, 4, ("a", "b"), density=rng.choice([1.0, 1.8, 2.5]))
        for lasso in list(enumerate_graph_lassos(lts.states, adjacency(lts), 2, 3))[:6]:
            k = len(lasso.cycle)
            shift = rng.randint(0, 2 * k)
            stem = lasso.unroll(len(lasso.stem.trace) + shift)
            cycle = lasso.cycle[shift % k:] + lasso.cycle[:shift % k]
            assert Lasso(stem, cycle * rng.randint(1, 3)).canonical() == lasso, lts


def test_lasso_canonicalization_absorbs_unrolling(corpus):
    sys = corpus.union_sys.system
    for (lasso, _) in fair_lassos(sys, 2, 3):
        k = len(lasso.cycle)
        grown_stem = lasso.unroll(len(lasso.stem.trace) + 2 * k)
        regrown = Lasso(grown_stem, lasso.cycle)
        assert regrown.canonical() == lasso


def test_streett_verdict_rotation_invariant(corpus):
    sys = corpus.union_sys.system
    for (lasso, fair) in fair_lassos(sys, 1, 3):
        cyc = lasso.cycle
        for r in range(1, len(cyc)):
            rotated_cycle = cyc[r:] + cyc[:r]
            stem = lasso.unroll(len(lasso.stem.trace) + r)
            rotated = Lasso(stem, rotated_cycle)
            assert sys.fairness.is_fair(rotated) == fair


# ---------------------------------------------------------------------------
# Simulation functions


def test_simulation_remark_map(corpus):
    entry = corpus.fair_rem
    ok, witness = is_simulation(entry.mapping, entry.source.lts, entry.target.lts)
    assert ok and witness is None


def test_simulation_identity(chain):
    ok, _ = is_simulation({s: s for s in chain.states}, chain, chain)
    assert ok


def test_simulation_collapse_fails(chain):
    f = {s: "x0" for s in chain.states}
    ok, witness = is_simulation(f, chain, chain)
    assert not ok
    assert witness == ("x1", "a", "x2")


def test_simulation_requires_total_map(chain):
    with pytest.raises(PreconditionError):
        is_simulation({"x0": "x0"}, chain, chain)


def test_fairness_sidecar_resolves_indices_through_names():
    from bisimap.lts import parse_fairness

    lts = parse_aut('des (0,1,2)\n(0,"a",1)', names=("left", "right"))
    spec = parse_fairness(
        '{"kind": "streett", "names": ["left", "right"], "pairs": [[["0"], ["1"]]]}',
        lts,
    )
    assert spec.pairs == ((frozenset({"left"}), frozenset({"right"})),)


def test_fairness_sidecar_rejects_unknown_state():
    from bisimap.lts import parse_fairness

    lts = parse_aut('des (0,1,2)\n(0,"a",1)', names=("left", "right"))
    with pytest.raises(ParseError):
        parse_fairness('{"kind": "always_after", "offset": 1, "states": ["zz"]}', lts)

import pytest

from bisimap import PreconditionError, semantics
from bisimap.equiv import (
    PartitionRelation,
    branching_bisimilarity,
    branching_quotient,
    check_bisim_map,
    check_branching_bisim_fn,
    check_branching_sim,
    check_fair_bisim_fn,
    check_fair_reflection,
    check_fair_sim,
    check_forall_fair_bisim,
    check_hildebrandt_open,
    check_strong_bisim_fn,
    forall_fair_quotient,
    format_witness,
    Verdict,
)
from bisimap.lts import (
    AlwaysAfterSpec, FairLts, Lts, StreettSpec, adjacency, is_simulation,
)
from bisimap.words import TAU

from conftest import complete_system, fair_systems, is_lasso_of, lts_of, plain_systems, stutter_fan
from oracles import (
    assert_fair_witness, brute_force_largest, branching_bisimilarity_fixpoint, eps_closure,
    extend_reduction, identity_relation, symmetric_closure,
)


# ---------------------------------------------------------------------------
# Relations


def test_partition_relation_kinds():
    universe = ("a", "b", "c")
    raw = PartitionRelation(universe, frozenset({("a", "b")}))
    assert raw.kind == "raw"
    sym = symmetric_closure(raw)
    assert sym.kind == "symmetric"
    eq = sym.equivalence_closure()
    assert eq.kind == "equivalence"
    assert eq.blocks() == (frozenset({"a", "b"}), frozenset({"c"}))


def test_equivalence_closure_of_a_long_chain():
    # the pair fixpoint took 2 s on this chain
    universe = tuple(f"s{i}" for i in range(80))
    R = PartitionRelation(universe, frozenset(zip(universe, universe[1:])))
    assert R.equivalence_closure().pairs == frozenset((a, b) for a in universe for b in universe)


def test_partition_relation_composition_order():
    universe = ("a", "b", "c")
    first = PartitionRelation(universe, frozenset({("a", "b")}))
    second = PartitionRelation(universe, frozenset({("b", "c")}))
    # second.after(first): apply first, then second
    assert second.after(first).pairs == frozenset({("a", "c")})
    assert first.after(second).pairs == frozenset()


def test_kernel_is_equivalence():
    k = PartitionRelation.kernel_of({"a": 1, "b": 1, "c": 2}, ("a", "b", "c"))
    assert k.kind == "equivalence"
    assert ("a", "b") in k.pairs and ("a", "c") not in k.pairs


# ---------------------------------------------------------------------------
# Strong checks


def test_strong_identity_holds(chain):
    lts = lts_of([("s", "a", "t"), ("t", "b", "s")])
    v = check_strong_bisim_fn({s: s for s in lts.states}, lts, lts)
    assert v.holds


def test_strong_collapse_fails_reflection():
    # the silent-then-visible chain with the silent step made visible
    src = lts_of([("x0", "b", "x1"), ("x1", "a", "x2")])
    tgt = lts_of([("q0", "b", "q1"), ("q1", "a", "q1")])
    f = {"x0": "q0", "x1": "q1", "x2": "q1"}
    v = check_strong_bisim_fn(f, src, tgt)
    assert not v.holds
    kind, (x, a, y) = v.witness
    assert kind == "no-reflection"
    # the witness is re-checkable: the image step exists, no source step matches
    assert tgt.has_transition(f[x], a, y)
    assert not any(
        lab == a and f[x2] == y for (lab, x2) in adjacency(src)[x]
    )


def test_strong_requires_simulation(chain):
    lts = lts_of([("s", "a", "t")])
    with pytest.raises(PreconditionError):
        check_strong_bisim_fn({"s": "t", "t": "t"}, lts, lts)


# ---------------------------------------------------------------------------
# Fair checks


def test_fair_identity_holds_on_corpus(corpus):
    for system in fair_systems(corpus).values():
        ident = {s: s for s in system.lts.states}
        assert check_fair_sim(ident, system, system).holds
        assert check_fair_reflection(ident, system, system).holds
        assert check_fair_bisim_fn(ident, system, system).holds
        assert check_hildebrandt_open(ident, system, system).holds


def test_hildebrandt_fails_without_reflection():
    X = FairLts(lts_of([("u", "a", "u")]), StreettSpec(()))
    Y = FairLts(
        lts_of([("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")]),
        StreettSpec(()),
    )
    f = {"u": "p"}
    v = check_hildebrandt_open(f, X, Y)
    assert not v.holds
    assert v.witness[0] == "no-reflection"


def test_fair_reflection_witness_is_recheckable(corpus):
    entry = corpus.fair_rem
    v = check_fair_reflection(entry.mapping, entry.source, entry.target)
    assert not v.holds
    lasso, image = v.witness[1]
    assert not entry.source.fairness.is_fair(lasso)
    assert entry.target.fairness.is_fair(image)
    assert image == lasso.map_states(entry.mapping).canonical()


def test_forall_fair_identity_relation(corpus):
    sys = corpus.union_sys.system
    ident = identity_relation(sys.lts.states)
    assert check_forall_fair_bisim(ident, sys).holds


def test_forall_fair_rejects_non_equivalence(corpus):
    sys = corpus.union_sys.system
    lopsided = PartitionRelation(sys.lts.states, frozenset({("x1", "y1")}))
    v = check_forall_fair_bisim(lopsided, sys)
    assert not v.holds and v.witness[0] == "not-equivalence"


def test_fair_sim_fails_on_unfair_image(corpus):
    # a map sending the fair alternating run onto the unfair constant loop
    sys = corpus.union_sys.system
    f = {"x1": "x2", "y1": "x2", "x2": "x2", "y2": "y2"}
    v = check_fair_sim(f, sys, sys)
    assert not v.holds
    kind, (lasso, image) = v.witness
    assert kind == "unfair-image"
    assert sys.fairness.is_fair(lasso)
    assert not sys.fairness.is_fair(image)
    assert is_lasso_of(sys.lts, lasso) and is_lasso_of(sys.lts, image)


def test_forall_fair_union_witness_is_recheckable(corpus):
    sys = corpus.union_sys.system
    r1 = corpus.union_sys.relations["R1"].reflexive_closure()
    r2 = corpus.union_sys.relations["R2"].reflexive_closure()
    merged = PartitionRelation(r1.universe, r1.pairs | r2.pairs).equivalence_closure()
    v = check_forall_fair_bisim(merged, sys)
    assert not v.holds
    left, right = v.witness[1]
    assert sys.fairness.is_fair(left)
    assert not sys.fairness.is_fair(right)
    # pointwise related along the run
    n = len(left.stem.trace) + 2 * len(left.cycle) + len(right.stem.trace) + 2 * len(right.cycle)
    lu, ru = left.unroll(n), right.unroll(n)
    assert all(merged.contains(a, b) for a, b in zip(lu.states, ru.states))
    assert lu.trace == ru.trace


def test_forall_fair_quotient_identity(corpus):
    sys = corpus.union_sys.system
    ident = identity_relation(sys.lts.states)
    quotient, f = forall_fair_quotient(ident, sys)
    assert len(quotient.lts.states) == len(sys.lts.states)
    assert len(set(f.values())) == len(sys.lts.states)
    assert check_fair_bisim_fn(f, sys, quotient).holds


def test_forall_fair_quotient_requires_valid_relation(corpus):
    sys = corpus.union_sys.system
    bad = PartitionRelation(sys.lts.states, frozenset({("x1", "x2")}))
    with pytest.raises(PreconditionError):
        forall_fair_quotient(bad, sys)


def test_fair_bisim_kernel_passes_forall_fair(corpus):
    sys = corpus.union_sys.system
    r2 = corpus.union_sys.relations["R2"].reflexive_closure()
    _, f = forall_fair_quotient(r2, sys)
    kernel = PartitionRelation.kernel_of(f, sys.lts.states)
    assert check_forall_fair_bisim(kernel, sys).holds


# ---------------------------------------------------------------------------
# Branching checks


def test_fair_reflection_exact_handles_mixed_kinds():
    # positional source fairness against Streett target fairness, exactly
    from bisimap.lts import AlwaysAfterSpec

    X = FairLts(lts_of([("u", "a", "u")]), AlwaysAfterSpec(0, frozenset()))
    Y = FairLts(lts_of([("v", "a", "v")]), StreettSpec(()))
    f = {"u": "v"}
    exact = check_fair_reflection(f, X, Y, "exact_streett")
    bounded = check_fair_reflection(f, X, Y, "bounded")
    assert not exact.holds and not bounded.holds
    assert exact.notes == ()  # genuinely exact, no fallback
    lasso, image = exact.witness[1]
    assert not X.fairness.is_fair(lasso)
    assert Y.fairness.is_fair(image)


def test_branching_identity_checks_hold(corpus):
    for X in plain_systems(corpus).values():
        ident = {s: s for s in X.states}
        assert check_branching_sim(ident, X, X).holds
        assert check_branching_bisim_fn(ident, X, X).holds


def test_branching_weak_reflection_witness_is_recheckable(corpus):
    entry = corpus.branch
    v = check_branching_bisim_fn(entry.mapping, entry.source, entry.target)
    kind, (w_src, a, y) = v.witness
    assert kind == "no-weak-reflection"
    assert entry.target.has_transition(w_src, a, y)
    eps = eps_closure(entry.source)
    f = entry.mapping
    anchors = [x for x in entry.source.states if f[x] == w_src]
    assert anchors
    for x in anchors:
        assert not any(
            f[x1] == f[x] and lab == a and f[x2] == y
            for x1 in eps[x]
            for (lab, x2) in adjacency(entry.source)[x1]
        )


def test_exact_fair_bisim_fn_refuses_a_fair_run_with_an_unfair_image():
    # every run of p -a-> q -a-> p is fair and no run of y -a-> y is; the
    # fair run (pq)^w needs a cycle of two steps, beyond bounds 1/1
    X = FairLts(lts_of([("p", "a", "q"), ("q", "a", "p")]), StreettSpec(()))
    Y = FairLts(lts_of([("y", "a", "y")]), StreettSpec(((frozenset({"y"}), frozenset()),)))
    f = {"p": "y", "q": "y"}
    exact = check_fair_bisim_fn(f, X, Y, "exact_streett", stem_bound=1, cycle_bound=1)
    assert not exact.holds and exact.witness[0] == "unfair-image"
    assert_fair_witness(f, X, Y, exact.witness)
    bounded = check_fair_bisim_fn(f, X, Y, "bounded", stem_bound=1, cycle_bound=1)
    assert bounded.holds
    assert bounded.certified_bounds == {"stem_bound": 1, "cycle_bound": 1}
    with pytest.raises(PreconditionError):
        check_fair_reflection(f, X, Y, "exact_streett", stem_bound=1, cycle_bound=1)


def test_fair_bisim_map_refuses_a_non_fair_simulation_at_any_bounds():
    # the same map: its precondition is decided exactly, so the refusal does
    # not depend on whether the lasso bounds reach the cycle of two steps
    X = FairLts(lts_of([("p", "a", "q"), ("q", "a", "p")]), StreettSpec(()))
    Y = FairLts(lts_of([("y", "a", "y")]), StreettSpec(((frozenset({"y"}), frozenset()),)))
    f = {"p": "y", "q": "y"}
    for bound in (1, 2, 3):
        with pytest.raises(PreconditionError) as refused:
            check_bisim_map(f, X, Y, "fair", depth=2, stem_bound=bound, cycle_bound=bound)
        assert str(refused.value) == (
            "not a fair simulation: unfair-image: p (loop: -a-> q -a-> p); y (loop: -a-> y)")


def test_image_fairness_builds_the_source_successor_lists_once(corpus, monkeypatch):
    # judging every bounded lasso of a quotient builds the source's successor
    # lists once, not once per lasso
    import pickle

    import bisimap.equiv
    from bisimap.lts import fair_lassos

    sys = corpus.union_sys.system
    r2 = corpus.union_sys.relations["R2"].reflexive_closure()
    quotient, f = forall_fair_quotient(r2, sys)
    fresh = pickle.dumps(quotient.fairness)
    calls = []
    counted = bisimap.equiv.adjacency
    monkeypatch.setattr(bisimap.equiv, "adjacency", lambda lts: calls.append(lts) or counted(lts))
    assert len(fair_lassos(quotient, 3, 3)) == 80
    assert len(calls) == 1
    # what is built on first use is not part of equality, hash or pickle
    again = forall_fair_quotient(r2, sys)[0].fairness
    assert quotient.fairness == again and hash(quotient.fairness) == hash(again)
    assert pickle.dumps(quotient.fairness) == fresh
    assert pickle.loads(fresh) == quotient.fairness


def test_image_fairness_agrees_with_bounded_preimage_search(corpus):
    # whenever a bounded enumeration finds a fair source lasso mapping onto a
    # quotient lasso, the exact product analysis must call the lasso fair
    from bisimap.lts import enumerate_graph_lassos, fair_lassos

    sys = corpus.union_sys.system
    r2 = corpus.union_sys.relations["R2"].reflexive_closure()
    quotient, f = forall_fair_quotient(r2, sys)
    qadj = adjacency(quotient.lts)
    checked = fair_found = 0
    for lasso in enumerate_graph_lassos(quotient.lts.states, qadj, 2, 2):
        checked += 1
        exact = quotient.fairness.is_fair(lasso)
        witnessed = False
        for (src_lasso, ok) in fair_lassos(sys, 4, 4):
            if not ok:
                continue
            if src_lasso.map_states(f).canonical() == lasso.canonical():
                witnessed = True
                break
        if witnessed:
            fair_found += 1
            assert exact
        if not exact:
            assert not witnessed
    assert checked > 0 and fair_found > 0


def test_branching_sim_stutter_violation():
    src = lts_of([("x1", "tau", "x2"), ("x2", "tau", "x3")])
    tgt = lts_of([("u", "tau", "v"), ("v", "tau", "u")])
    f = {"x1": "u", "x2": "v", "x3": "u"}
    v = check_branching_sim(f, src, tgt)
    assert not v.holds
    assert v.witness[0] == "stutter"
    x1, x2, x3 = v.witness[1]
    assert f[x1] == f[x3] and f[x1] != f[x2]


@pytest.mark.parametrize("check", [check_branching_sim, check_branching_bisim_fn])
def test_stutter_witness_is_the_first_in_state_order(check):
    f, src, tgt = stutter_fan()
    v = check(f, src, tgt)
    assert v.witness == ("stutter", ("p", "q1", "r"))
    assert format_witness(v.witness) == "stutter: silent run through p, q1, r"


@pytest.mark.parametrize("images", [1, 2])
def test_stutter_search_on_a_long_silent_cycle(images):
    # the triple loop took 10 s on this cycle at 500 states
    n = 1000
    states = [f"s{i}" for i in range(n)]
    X = lts_of([(states[i], "tau", states[(i + 1) % n]) for i in range(n)]
               + [(states[0], "a", states[0])])
    Y = complete_system(["y0", "y1"][:images], ("a",))
    f = {s: "y1" if images == 2 and i == n // 2 else "y0" for i, s in enumerate(states)}
    v = check_branching_sim(f, X, Y)
    if images == 1:
        assert v.holds
    else:
        assert v.witness == ("stutter", ("s0", f"s{n // 2}", "s0"))


@pytest.mark.parametrize("labels", [("a",), ("a", "b")])
def test_weak_reflection_on_a_long_silent_cycle(labels):
    # the silent closure of every state took 5 s on this cycle
    n = 4000
    states = [f"s{i}" for i in range(n)]
    X = lts_of([(states[i], "tau", states[(i + 1) % n]) for i in range(n)]
               + [(states[0], "a", states[0])])
    v = check_branching_bisim_fn(dict.fromkeys(states, "y0"), X, complete_system(["y0"], labels))
    if labels == ("a",):
        assert v.holds
    else:
        assert v.witness == ("no-weak-reflection", ("y0", "b", "y0"))


def test_lift_preconditions_print_witnesses_as_verdicts_do():
    f, src, tgt = stutter_fan()
    for mode in ("branching", "branching_failed"):
        with pytest.raises(PreconditionError) as exc:
            check_bisim_map(f, src, tgt, mode)
        assert str(exc.value) == "not a branching simulation: stutter: silent run through p, q1, r"
    X, Y = lts_of([("p", "a", "p")]), lts_of([("y", "b", "y")], alphabet={"a", "b"})
    with pytest.raises(PreconditionError) as exc:
        check_bisim_map({"p": "y"}, X, Y, "strong")
    assert str(exc.value) == "not a simulation: violates p -a-> p"


def test_a_branching_map_check_searches_for_stutters_once(monkeypatch, corpus):
    calls = []
    search = semantics._first_stutter

    def counted(f, source):
        calls.append(f)
        return search(f, source)

    monkeypatch.setattr(semantics, "_first_stutter", counted)
    accepted = (corpus.branch.mapping, corpus.branch.source, corpus.branch.target)
    for (f, src, tgt) in (accepted, stutter_fan()):
        for mode in ("branching", "branching_failed"):
            calls.clear()
            try:
                check_bisim_map(f, src, tgt, mode, depth=2)
            except PreconditionError:
                pass
            assert len(calls) == 1, mode


def test_branching_bisimilarity_chain():
    lts = lts_of([("x1", "tau", "x2"), ("x2", "a", "x3")])
    R = branching_bisimilarity(lts)
    assert R.contains("x1", "x2")
    assert not R.contains("x2", "x3")
    assert R.kind == "equivalence"


def test_branching_bisimilarity_self_loops_single_block():
    lts = lts_of([("u", "a", "u"), ("v", "a", "v"), ("w", "a", "w")])
    R = branching_bisimilarity(lts)
    assert R.blocks() == (frozenset({"u", "v", "w"}),)


def test_branching_branch_states_not_bisimilar(corpus):
    R = branching_bisimilarity(corpus.branch.combined)
    assert not R.contains("x1", "y1")


def test_branching_quotient_chain():
    lts = lts_of([("x1", "tau", "x2"), ("x2", "a", "x3")])
    quotient, f = branching_quotient(lts)
    assert len(quotient.states) == 2
    assert check_branching_bisim_fn(f, lts, quotient).holds
    kernel = PartitionRelation.kernel_of(f, lts.states)
    assert kernel.pairs == branching_bisimilarity(lts).pairs


def test_branching_quotient_of_minimal_system_is_bijective():
    lts = lts_of([("u", "a", "v"), ("v", "b", "v")])
    quotient, f = branching_quotient(lts)
    assert len(set(f.values())) == len(lts.states)


def test_extend_reduction_lands_in_bisim_fn():
    # a reduction into a non-minimal target, fixed up by its quotient map
    mid = lts_of([("u", "tau", "v"), ("v", "a", "w")])
    src = lts_of([("p", "tau", "q"), ("q", "a", "r")])
    g = {"p": "u", "q": "v", "r": "w"}
    quotient, composite = extend_reduction(g, src, mid)
    assert check_branching_bisim_fn(composite, src, quotient).holds


def test_refinement_on_silent_cycles():
    # p and q stutter on a silent cycle with an exit by a; l diverges
    # silently, which branching bisimilarity does not tell from deadlock
    lts = lts_of([("p", "tau", "q"), ("q", "tau", "p"), ("q", "a", "r"), ("l", "tau", "l")],
                 extra_states=("d",))
    R = branching_bisimilarity(lts)
    assert R.blocks() == (frozenset({"d", "l", "r"}), frozenset({"p", "q"}))
    assert R.pairs == branching_bisimilarity_fixpoint(lts).pairs


def test_refinement_on_a_long_alternating_chain():
    lts = lts_of([(f"s{i}", "tau" if i % 2 == 0 else "a", f"s{i + 1}") for i in range(499)])
    R = branching_bisimilarity(lts)
    assert len(R.blocks()) == 250
    quotient, f = branching_quotient(lts)
    assert len(quotient.states) == 250
    assert PartitionRelation.kernel_of(f, lts.states).pairs == R.pairs


def test_brute_force_examples():
    loops = lts_of([("u", "a", "u"), ("v", "a", "v")])
    largest = brute_force_largest(loops, "strong")
    assert largest.pairs == frozenset(
        (a, b) for a in ("u", "v") for b in ("u", "v")
    )
    chain = lts_of([("x1", "tau", "x2"), ("x2", "a", "x3")])
    lb = brute_force_largest(chain, "branching")
    assert lb.pairs == frozenset(
        {("x1", "x2"), ("x2", "x1"), ("x1", "x1"), ("x2", "x2"), ("x3", "x3")}
    )


def test_brute_force_guard():
    big = lts_of([(f"s{i}", "a", f"s{(i + 1) % 8}") for i in range(8)])
    with pytest.raises(PreconditionError):
        brute_force_largest(big, "strong")


# ---------------------------------------------------------------------------
# Abstract map check plumbing


def test_bisim_map_mode_guards(corpus):
    with pytest.raises(PreconditionError):
        check_bisim_map(
            {s: s for s in corpus.chain.states}, corpus.chain, corpus.chain, "strong"
        )
    entry = corpus.fair_rem
    with pytest.raises(PreconditionError):
        check_bisim_map(entry.mapping, entry.source, entry.target, "branching")
    with pytest.raises(PreconditionError):
        check_bisim_map(entry.mapping, entry.source.lts, entry.target.lts, "nonsense")


def test_bisim_map_strong_identity_agrees():
    lts = lts_of([("s", "a", "t"), ("t", "b", "s")])
    report = check_bisim_map({s: s for s in lts.states}, lts, lts, "strong", depth=3)
    assert report.presheaf_verdict.holds
    assert report.concrete_verdict.holds
    assert report.agreement


def test_strong_bisim_map_builds_no_stage_beyond_length_one(monkeypatch):
    import bisimap.semantics

    calls = _count_calls(monkeypatch, bisimap.semantics, "executions_up_to")
    lts = lts_of([("s", "a", "t"), ("t", "b", "s"), ("t", "a", "t")])
    report = check_bisim_map({s: s for s in lts.states}, lts, lts, "strong", depth=4)
    assert report.presheaf_verdict.certified_bounds == {"depth": 4}
    assert calls and all(depth <= 1 for (_, depth) in calls)


def test_fair_map_of_unfair_self_loop_onto_loop_splits_the_routes():
    # s1 -a-> s1 forever is unfair (s0 must recur) but its image is fair, so
    # the concrete check refuses; every finite prefix of that run extends to
    # a fair lasso, so no chain square lacks a filler and the filler route
    # accepts.  A known split of the two routes (ROADMAP item 5): when it is
    # resolved, this test changes with it.
    X = FairLts(
        lts_of([("s0", "a", "s1"), ("s1", "a", "s0"), ("s1", "a", "s1")]),
        StreettSpec(((frozenset({"s0", "s1"}), frozenset({"s0"})),)),
    )
    Y = FairLts(lts_of([("y", "a", "y")]), StreettSpec(()))
    f = {"s0": "y", "s1": "y"}
    for depth in (3, 4):
        report = check_bisim_map(f, X, Y, "fair", depth=depth)
        assert report.presheaf_verdict.holds
        assert not report.concrete_verdict.holds
        assert report.concrete_verdict.witness[0] == "chain-with-fair-image-but-no-fair-limit"
        assert not report.agreement


def test_verdict_carries_a_witness_exactly_when_it_fails():
    assert Verdict("c", True).witness is None
    assert Verdict("c", False, ("w",)).witness == ("w",)
    with pytest.raises(PreconditionError):
        Verdict("c", False)
    with pytest.raises(PreconditionError):
        Verdict("c", True, ("w",))


def test_bisim_map_fair_identity_accepted(corpus):
    src = corpus.fair_rem.source
    ident = {s: s for s in src.lts.states}
    report = check_bisim_map(ident, src, src, "fair")
    assert report.presheaf_verdict.holds
    assert report.concrete_verdict.holds
    assert report.agreement


def test_bisim_map_machine_record_fields(corpus):
    entry = corpus.branch
    report = check_bisim_map(entry.mapping, entry.source, entry.target, "branching")
    rec = report.presheaf_verdict.to_record()
    assert list(rec) == ["check", "holds", "witness", "certified_bounds"]
    assert rec["holds"] is False and isinstance(rec["witness"], str)


# ---------------------------------------------------------------------------
# Shared work: each check enumerates a system's lassos once and builds one
# base poset per lift


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _lasso_calls(monkeypatch):
    import bisimap.equiv
    import bisimap.semantics

    calls = []
    for module in (bisimap.equiv, bisimap.semantics):
        original = getattr(module, "fair_lassos")

        def counted(fl, *args, _original=original):
            calls.append(fl)
            return _original(fl, *args)

        monkeypatch.setattr(module, "fair_lassos", counted)
    return calls


@pytest.mark.parametrize("mode", ["exact_streett", "bounded"])
def test_fair_checks_enumerate_each_system_once(corpus, monkeypatch, mode):
    entry = corpus.fair_rem
    f, X, Y = entry.mapping, entry.source, entry.target
    # the exact decision needs no lassos; the bounded one enumerates the
    # source's once for both directions
    expected = [] if mode == "exact_streett" else [X]
    calls = _lasso_calls(monkeypatch)
    assert not check_fair_bisim_fn(f, X, Y, mode).holds
    assert calls == expected
    calls.clear()
    assert not check_fair_reflection(f, X, Y, mode).holds
    assert calls == expected
    calls.clear()
    check_hildebrandt_open(f, X, Y)
    assert sorted(map(id, calls)) == sorted([id(X), id(Y)])


def test_fair_bisim_map_enumerates_each_system_once(corpus, monkeypatch):
    entry = corpus.fair_rem
    calls = _lasso_calls(monkeypatch)
    report = check_bisim_map(entry.mapping, entry.source, entry.target, "fair",
                             depth=2, stem_bound=2, cycle_bound=2)
    assert not report.concrete_verdict.holds
    assert calls == [entry.source, entry.target]


def test_each_lift_builds_one_base_poset(corpus, monkeypatch):
    import bisimap.semantics

    builds = []
    for name in ("word_poset", "branching_target_poset", "fair_target_poset"):
        builds.append(_count_calls(monkeypatch, bisimap.semantics, name))

    def count():
        n = sum(len(b) for b in builds)
        for b in builds:
            b.clear()
        return n

    lts = lts_of([("s", "a", "t"), ("t", "b", "s")])
    check_bisim_map({s: s for s in lts.states}, lts, lts, "strong", depth=2)
    assert count() == 1
    branch = corpus.branch
    for mode in ("branching", "branching_failed"):
        check_bisim_map(branch.mapping, branch.source, branch.target, mode, depth=2)
        assert count() == 1
    entry = corpus.fair_rem
    check_bisim_map(entry.mapping, entry.source, entry.target, "fair",
                    depth=2, stem_bound=2, cycle_bound=2)
    assert count() == 1


def test_fair_bisim_map_concrete_route_falls_back_to_bounded(corpus, monkeypatch):
    # image fairness has no exact analysis, so the concrete route of the map
    # check enumerates the source's lassos after all, as check_fair_bisim_fn does
    r2 = corpus.union_sys.relations["R2"].reflexive_closure()
    quotient, _ = forall_fair_quotient(r2, corpus.union_sys.system)
    ident = {s: s for s in quotient.lts.states}
    calls = _lasso_calls(monkeypatch)
    report = check_bisim_map(ident, quotient, quotient, "fair",
                             depth=2, stem_bound=2, cycle_bound=2)
    assert calls == [quotient, quotient, quotient]
    direct = check_fair_bisim_fn(ident, quotient, quotient, stem_bound=2, cycle_bound=2)
    assert report.concrete_verdict == direct
    assert direct.notes and direct.certified_bounds


def test_states_of_different_types_end_no_check_in_a_type_error():
    # 1 and "1" never compare: every sort of states keeps the types apart
    X = Lts.make((0, 1, "1"), {"a"}, [(0, "a", 1), (0, "a", "1")])
    ident = {s: s for s in X.states}
    assert check_strong_bisim_fn(ident, X, X).holds
    report = check_bisim_map(ident, X, X, "strong")
    assert report.presheaf_verdict.holds and report.agreement
    silent = Lts.make(X.states, {"a"}, [(0, TAU, 1), (0, TAU, "1"), (1, "a", 1), ("1", "a", "1")])
    for mode in ("branching", "branching_failed"):
        report = check_bisim_map({s: s for s in silent.states}, silent, silent, mode, 3)
        assert report.presheaf_verdict.holds and report.concrete_verdict.holds
    lts = Lts.make(X.states, {"a"}, X.transitions | {(1, "a", 1), ("1", "a", "1")})
    fair = FairLts(lts, StreettSpec(((frozenset({1}), frozenset({"1"})),)))
    assert check_fair_bisim_fn(ident, fair, fair).holds
    twins = PartitionRelation(X.states, frozenset({(s, s) for s in X.states} | {(1, "1"), ("1", 1)}))
    verdict = check_forall_fair_bisim(twins, fair)
    assert not verdict.holds and verdict.witness[0] == "fairness-not-transferred"
    assert check_forall_fair_bisim(PartitionRelation(X.states, frozenset((s, s) for s in X.states)),
                                   fair).holds
    # the witness and error texts order mixed states by type name, then value
    assert is_simulation({0: 0, 1: 0, "1": 0}, X, X) == (False, (0, "a", 1))
    with pytest.raises(PreconditionError, match=r"missing \[1, '1'\]"):
        check_strong_bisim_fn({0: 0}, X, X)


def test_witnesses_on_int_and_mixed_states_print_transitions_as_steps():
    X = Lts.make((0, 1), {"a"}, [(0, "a", 1)])
    Y = Lts.make((0, 1), {"a"}, [(0, "a", 1), (1, "a", 1)])
    ident = {0: 0, 1: 1}
    assert format_witness(check_strong_bisim_fn(ident, X, Y).witness) == "no-reflection: 1 -a-> 1"
    assert format_witness(check_branching_bisim_fn(ident, X, Y).witness) == "no-weak-reflection: 1 -a-> 1"
    mixed = Lts.make((1, "1"), {"a"}, [(1, "a", "1")])
    assert format_witness(is_simulation({1: "1", "1": 1}, mixed, mixed)[1]) == "1 -a-> 1"
    assert format_witness(("no-reflection", ("1", TAU, 1))) == "no-reflection: 1 -tau-> 1"
    # string states print as before, and a tuple at either end is no step
    assert format_witness(("no-reflection", ("p", "a", "q"))) == "no-reflection: p -a-> q"
    assert format_witness((("p", "q"), "a", "q")) == "p: q; a; q"


def test_quotients_refuse_states_that_are_not_strings():
    X = Lts.make((0, 1), {"a"}, [(0, "a", 1)])
    with pytest.raises(PreconditionError, match="states must be strings, not 0"):
        branching_quotient(X)
    fair = FairLts(X, StreettSpec(()))
    with pytest.raises(PreconditionError, match="states must be strings, not 0"):
        forall_fair_quotient(identity_relation(X.states), fair)

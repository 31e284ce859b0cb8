import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bisimap
from bisimap import InternalCheckError, PreconditionError
from bisimap.lts import Execution, FairLts, Lts, StreettSpec, executions_up_to, restrict
from bisimap.presheaf import _stage_sorted, branching_target_poset
from bisimap.semantics import (
    _step_images,
    base_presheaf,
    branching_sem,
    branching_sem_map,
    fair_sem,
    fair_sem_map,
    strong_sem,
    strong_sem_map,
)
from bisimap.words import EPSILON, TAU, TAU_BAR, LassoTrace, StretchPoint, Word

from conftest import compose_trans, fair_systems, identity_trans, lts_of, plain_systems, random_lts
from oracles import (
    extend_reduction,
    hide,
    hiding_map,
    is_minimal_execution,
    left_kan,
    map_pf,
    minimal_executions,
    mpast,
    naturality_violations,
    table_map,
    tables,
    validate,
)


def exec_of(word_letters, states):
    return Execution(Word.of(*word_letters), tuple(states))


# ---------------------------------------------------------------------------
# Strong semantics


def test_strong_sem_one_transition():
    lts = lts_of([("s", "a", "t")])
    F = strong_sem(lts, 1)
    assert len(F.stage(Word.of("a"))) == 1
    assert validate(F).ok


def test_strong_sem_map_of_identity_is_identity():
    lts = lts_of([("s", "a", "t"), ("t", "b", "s")])
    F = strong_sem(lts, 2)
    lifted = strong_sem_map({s: s for s in lts.states}, lts, lts, 2)
    assert table_map(lifted).comp == table_map(identity_trans(F)).comp


def test_strong_sem_map_requires_simulation():
    lts = lts_of([("s", "a", "t")])
    with pytest.raises(PreconditionError):
        strong_sem_map({"s": "t", "t": "t"}, lts, lts, 1)


def test_strong_sem_map_remark_system_is_natural(corpus):
    entry = corpus.fair_rem
    lifted = strong_sem_map(entry.mapping, entry.source.lts, entry.target.lts, 3)
    assert naturality_violations(lifted) == []


def test_strong_sem_functorial_and_faithful():
    X = lts_of([("a0", "a", "a1")])
    Y = lts_of([("b0", "a", "b1"), ("b1", "a", "b1")])
    Z = lts_of([("c0", "a", "c0")])
    f = {"a0": "b0", "a1": "b1"}
    g = {"b0": "c0", "b1": "c0"}
    gf = {x: g[f[x]] for x in f}
    lf = strong_sem_map(f, X, Y, 2)
    lg = strong_sem_map(g, Y, Z, 2)
    lgf = strong_sem_map(gf, X, Z, 2)
    assert table_map(compose_trans(lg, lf)).comp == table_map(lgf).comp
    # distinct maps stay distinct on the empty-word stage
    g2 = {"b0": "c0", "b1": "c0"}
    assert table_map(strong_sem_map(g2, Y, Z, 1)).comp[EPSILON] == table_map(lg).comp[EPSILON]


# ---------------------------------------------------------------------------
# Fair semantics


def test_fair_sem_remark_infinite_stage(corpus):
    src = corpus.fair_rem.source
    F = tables(fair_sem(src, 3, 3, 2))
    [trace] = [e for e in F.base.elements if isinstance(e, LassoTrace)]
    stage = F.stage(trace)
    assert stage, "the fair trace stage must be populated"
    for lasso in stage:
        assert "xp" in lasso.cycle_states
    # restriction to a finite word unrolls the lasso
    two = Word.of("a", "a")
    for lasso in stage:
        assert F.restrict(lasso, trace, two) == lasso.unroll(2)


def test_fair_sem_no_cycles_no_infinite_stages():
    from bisimap.lts import FairLts, StreettSpec

    acyclic = FairLts(lts_of([("u", "a", "v")]), StreettSpec(()))
    F = fair_sem(acyclic, 2, 2, 2)
    assert not [e for e in F.base.elements if isinstance(e, LassoTrace)]


def test_fair_sem_union_contains_alternating_lasso(corpus):
    sys = corpus.union_sys.system
    F = tables(fair_sem(sys, 2, 1, 2))
    [trace] = [e for e in F.base.elements if isinstance(e, LassoTrace)]
    assert any(set(l.cycle_states) == {"x1", "y1"} for l in F.stage(trace))
    assert all(sys.fairness.is_fair(l) for l in F.stage(trace))


def test_fair_sem_map_is_natural(corpus):
    entry = corpus.fair_rem
    lifted = fair_sem_map(entry.mapping, entry.source, entry.target, 3, 3, 2)
    assert naturality_violations(lifted) == []


# ---------------------------------------------------------------------------
# Base presheaves


def test_base_presheaf_chain_plain(chain):
    F = base_presheaf(chain, 2)
    ta = Word.of(TAU, "a")
    assert set(tables(F).stage(ta)) == {exec_of((TAU, "a"), ("x0", "x1", "x2"))}
    assert validate(F).ok


def test_base_presheaf_barred_stages_equal(chain):
    F = base_presheaf(chain, 2, barred=True)
    T = tables(F)
    s1, s2 = StretchPoint(1), StretchPoint(2)
    assert T.stage(s1) == T.stage(s2)
    silent = set(T.stage(s1))
    assert silent == {
        Execution.empty("x0"), Execution.empty("x1"), Execution.empty("x2"),
        exec_of((TAU,), ("x0", "x1")),
    }
    for p in T.stage(s2):
        assert T.restrict(p, s2, s1) == p
        assert T.restrict(p, s2, EPSILON) == Execution.empty(p.start)
    assert validate(F).ok


# ---------------------------------------------------------------------------
# Minimal executions


def test_minimal_executions_chain(chain):
    mins = minimal_executions(chain, Word.of("a"), 3)
    assert mins == frozenset({
        exec_of((TAU, "a"), ("x0", "x1", "x2")),
        exec_of(("a",), ("x1", "x2")),
    })


def test_minimal_executions_empty_word(chain):
    mins = minimal_executions(chain, EPSILON, 3)
    assert mins == frozenset(Execution.empty(s) for s in chain.states)


def test_minimal_executions_branch(corpus):
    mins = minimal_executions(corpus.branch.combined, Word.of("a"), 2)
    assert mins == frozenset({
        exec_of(("a",), ("x1", "x2")),
        exec_of(("a",), ("y1", "y2")),
    })


def test_mpast_examples():
    p = exec_of((TAU, "a"), ("x0", "x1", "x2"))
    assert mpast(p, EPSILON) == Execution.empty("x0")
    assert mpast(p, hide(p.trace)) == p
    with pytest.raises(PreconditionError):
        mpast(p, Word.of("b"))


def test_mpast_composition_law(chain):
    execs = minimal_executions(chain, Word.of("a"), 4)
    for p in execs:
        full = hide(p.trace)
        for mid in full.prefixes():
            for low in mid.prefixes():
                assert mpast(mpast(p, mid), low) == mpast(p, low)
                assert is_minimal_execution(mpast(p, mid))


# ---------------------------------------------------------------------------
# Branching semantics


def test_branching_sem_branch_stretch_stage(corpus):
    B = tables(branching_sem(corpus.branch.combined, 2))
    stretch = set(B.stage(TAU_BAR))
    assert exec_of((TAU,), ("y1", "y3")) in stretch


def test_branching_sem_chain_stages(chain):
    B = tables(branching_sem(chain, 2))
    assert set(B.stage(Word.of("a"))) == {
        exec_of((TAU, "a"), ("x0", "x1", "x2")),
        exec_of(("a",), ("x1", "x2")),
    }
    assert set(B.stage(TAU_BAR)) == {
        Execution.empty("x0"), Execution.empty("x1"), Execution.empty("x2"),
        exec_of((TAU,), ("x0", "x1")),
    }
    for p in B.stage(TAU_BAR):
        assert B.restrict(p, TAU_BAR, EPSILON) == Execution.empty(p.start)
    assert validate(branching_sem(chain, 2)).ok


def test_branching_sem_agrees_with_kan_extension(chain):
    B = tables(branching_sem(chain, 3))
    F = base_presheaf(chain, 3, barred=True)
    h = hiding_map(F.base, branching_target_poset(sorted(chain.alphabet), 3))
    K = tables(left_kan(h, F))
    for e in B.base.elements:
        assert {v for (_, v) in K.stage(e)} == set(B.stage(e))


def test_branching_lift_formats_no_execution(monkeypatch, corpus):
    # the states 1 and "1" print alike, and so do their executions
    ties = Lts.make((1, "1"), {"a"}, [(1, "a", 1), ("1", "a", "1"), (1, TAU, "1")])
    cases = [({s: s for s in ties.states}, ties, ties),
             (corpus.branch.mapping, corpus.branch.source, corpus.branch.target)]
    formatted = []
    original = Execution.__str__

    def counted(self):
        formatted.append(self)
        return original(self)

    for (f, X, Y) in cases:
        for with_stretch in (True, False):
            monkeypatch.setattr(Execution, "__str__", counted)
            lifted = branching_sem_map(f, X, Y, 3, with_stretch)
            monkeypatch.undo()
            assert formatted == []
            for F in (lifted.source, lifted.target):
                for e in F.base.elements:
                    assert tables(F).stage(e) == _stage_sorted(tables(F).stage(e))
    tied = tables(branching_sem(ties, 3)).stage(Word.of("a"))
    assert str(tied[0]) == str(tied[1]) and repr(tied[0]) < repr(tied[1])


# ---------------------------------------------------------------------------
# Execution images


def test_map_pf_collapses_stutter():
    X = lts_of([("x", "tau", "xq")])
    Y = lts_of([("y", "a", "y")], alphabet={"a"})
    f = {"x": "y", "xq": "y"}
    p = exec_of((TAU,), ("x", "xq"))
    assert map_pf(f, p, Y) == Execution.empty("y")


def test_map_pf_empty_execution():
    f = {"x": "y"}
    assert map_pf(f, Execution.empty("x")) == Execution.empty("y")


def test_map_pf_branch_example(corpus):
    entry = corpus.branch
    p = exec_of(("a",), ("x1", "x2"))
    assert map_pf(entry.mapping, p, entry.target) == exec_of(("a",), ("y1", "y2"))


def test_map_pf_preserves_minimality(corpus):
    entry = corpus.branch
    for rho_len in range(0, 2):
        for rho in ([EPSILON] if rho_len == 0 else [Word.of("a")]):
            for p in minimal_executions(entry.source, rho, 3):
                image = map_pf(entry.mapping, p, entry.target)
                assert is_minimal_execution(image)
                assert hide(image.trace) == hide(p.trace)


def test_step_images_are_one_table_per_lift():
    X = lts_of([("x", "tau", "xq"), ("xq", "a", "x")])
    Y = lts_of([("y", "a", "y")], alphabet={"a"})
    assert _step_images({"x": "y", "xq": "y"}, X, Y) == ({
        ("x", TAU, "xq"): None,
        ("xq", "a", "x"): ("a", "y"),
    }, None)
    # the map is no simulation: the table's witness names the step without
    # an image, whose image the oracle finds missing too
    Z = lts_of([("y", "a", "z")], alphabet={"a"})
    assert _step_images({"x": "y", "xq": "y"}, X, Z)[1] == ("visible", ("xq", "a", "x"))
    with pytest.raises(InternalCheckError, match="image step y -a-> y missing in target"):
        map_pf({"x": "y", "xq": "y"}, exec_of((TAU, "a"), ("x", "xq", "x")), Z)


def test_branching_sem_map_requires_branching_simulation(corpus):
    entry = corpus.branch
    bad = dict(entry.mapping)
    bad["x2"] = "y3"  # breaks visible-step preservation
    with pytest.raises(PreconditionError):
        branching_sem_map(bad, entry.source, entry.target, 2)


def test_branching_sem_map_is_natural(corpus):
    entry = corpus.branch
    lifted = branching_sem_map(entry.mapping, entry.source, entry.target, 3)
    assert naturality_violations(lifted) == []
    lifted_failed = branching_sem_map(
        entry.mapping, entry.source, entry.target, 3, with_stretch=False
    )
    assert naturality_violations(lifted_failed) == []


def test_branching_sem_map_functor_laws(corpus):
    from bisimap.equiv import branching_quotient

    # identity lifts to the identity transformation
    X = corpus.branch.combined
    B = branching_sem(X, 3)
    lifted = branching_sem_map({s: s for s in X.states}, X, X, 3)
    assert table_map(lifted).comp == table_map(identity_trans(B)).comp

    # composition is preserved on a composable pair of quotient maps
    mid, f = branching_quotient(X)
    final, gf = extend_reduction(f, X, mid)
    _, g = branching_quotient(mid)
    lf = branching_sem_map(f, X, mid, 3)
    lg = branching_sem_map(g, mid, final, 3)
    lgf = branching_sem_map(gf, X, final, 3)
    composed = compose_trans(lg, lf)
    assert [composed.at[x] for xs in lf.source.stages.values() for x in xs] == [
        lgf.at[x] for xs in lgf.source.stages.values() for x in xs]

    # distinct maps are distinguished already on the empty-word stage
    Z = lts_of([], extra_states=("u", "v"), alphabet={"a"})
    ident2 = branching_sem_map({"u": "u", "v": "v"}, Z, Z, 1)
    swap = branching_sem_map({"u": "v", "v": "u"}, Z, Z, 1)
    assert table_map(ident2).comp[EPSILON] != table_map(swap).comp[EPSILON]


def test_executions_of_stateless_system_are_empty():
    from bisimap.lts import Lts, executions_up_to

    empty = Lts.make((), {"a"}, ())
    stages = executions_up_to(empty, 2)
    assert stages[EPSILON] == frozenset()
    assert all(not ps for ps in stages.values())


# ---------------------------------------------------------------------------
# Restrictions stored along cover edges only


def _execution_rule(x, hi, lo):
    return restrict(x, lo)


def _barred_rule(x, hi, lo):
    if isinstance(hi, StretchPoint):
        return x if isinstance(lo, StretchPoint) else Execution.empty(x.start)
    return restrict(x, lo)


def _fair_rule(x, hi, lo):
    if isinstance(hi, LassoTrace):
        return x.unroll(len(lo))
    return restrict(x, lo)


def _minimal_rule(x, hi, lo):
    if hi is TAU_BAR:
        return Execution.empty(x.start)
    return mpast(x, lo)


def _constructions(plain, fair, depth):
    """(presheaf, its construction's rule between any comparable pair)."""
    out = []
    for X in plain:
        if not X.has_tau:
            out.append((strong_sem(X, depth), _execution_rule))
        out.append((base_presheaf(X, depth), _execution_rule))
        out.append((base_presheaf(X, depth, barred=True), _barred_rule))
        out.append((branching_sem(X, depth), _minimal_rule))
        out.append((branching_sem(X, depth, with_stretch=False), _minimal_rule))
    for FX in fair:
        out.append((fair_sem(FX, depth, 2, 2), _fair_rule))
    return out


def _composed_mismatches(F, rule):
    base, printed = F.base, F.elements
    return [
        (lo, hi, printed[x])
        for hi in base.elements
        for lo in base.down(hi)[:-1]
        for x in F.stage(hi)
        if printed[F.restrict(x, hi, lo)] != rule(printed[x], hi, lo)
    ]


def test_composed_cover_restrictions_equal_each_rule_on_the_corpus(corpus):
    cases = _constructions(plain_systems(corpus).values(), fair_systems(corpus).values(), 3)
    assert any(any(isinstance(e, LassoTrace) for e in F.base.elements) for F, _ in cases)
    for F, rule in cases:
        assert _composed_mismatches(F, rule) == []


def test_composed_cover_restrictions_equal_each_rule_on_random_systems():
    rng = random.Random(4711)
    plain = [random_lts(rng, 4, ("a", "b"), tau_prob=0.3, density=1.5) for _ in range(12)]
    plain += [random_lts(rng, 4, ("a", "b"), density=1.5) for _ in range(6)]
    fair = [FairLts(random_lts(rng, 3, ("a", "b"), density=1.6), StreettSpec(()))
            for _ in range(6)]
    checked = 0
    for F, rule in _constructions(plain, fair, 3):
        assert _composed_mismatches(F, rule) == []
        checked += sum(len(F.stage(e)) * len(F.base.down(e)[:-1]) for e in F.base.elements)
    assert checked > 1000


# ---------------------------------------------------------------------------
# Sparse stages and stage order


def test_no_construction_stores_an_empty_stage(corpus):
    rng = random.Random(2718)
    stateless = Lts.make((), {"a"}, ())
    plain = [*plain_systems(corpus).values(), stateless]
    plain += [random_lts(rng, 4, ("a", "b"), tau_prob=0.3, density=1.5) for _ in range(12)]
    cases = _constructions(plain, fair_systems(corpus).values(), 3)
    assert len(cases) > 60
    for F, _ in cases:
        assert all(F.stages.values())
        assert list(F.stages) == [e for e in F.base.elements if e in F.stages]
    assert strong_sem(stateless, 3).stages == {}


def test_a_deep_silent_lift_stores_only_the_stages_its_executions_reach():
    # a silent 2-cycle over {a, b, c} onto a one-state silent loop: at depth
    # 8 the base has 9,842 elements, and the executions reach two of them
    labels = {"a", "b", "c"}
    X = Lts.make(("x0", "x1"), labels, [("x0", TAU, "x1"), ("x1", TAU, "x0")])
    Y = Lts.make(("y",), labels, [("y", TAU, "y")])
    lifted = branching_sem_map({"x0": "y", "x1": "y"}, X, Y, 8)
    assert len(lifted.source.base.elements) == 9842
    for F in (lifted.source, lifted.target):
        assert list(F.stages) == [EPSILON, TAU_BAR]
    assert [F.total_elements() for F in (lifted.source, lifted.target)] == [2 + 18, 1 + 9]
    # one int per tree node, and one per root for its copy at the stretch stage
    assert [len(F.elements) for F in (lifted.source, lifted.target)] == [2 + 18, 1 + 9]
    assert len(lifted.at) == len(lifted.source.elements)


def _with_twins(rng):
    """A random silent system over {a}, a copy of it whose states print like
    the first's (k and "k"), and a third part over {a, b}, whose b-stages
    have no tie."""
    X = random_lts(rng, 3, ("a",), tau_prob=0.5, density=1.5)
    Z = random_lts(rng, 3, ("a", "b"), tau_prob=0.5, density=1.5)
    parts = [(X, lambda s: int(s[1:])), (X, lambda s: s[1:]), (Z, lambda s: "z" + s[1:])]
    return Lts.make([name(s) for lts, name in parts for s in lts.states], {"a", "b"},
                    [(name(s), lab, name(t)) for lts, name in parts
                     for (s, lab, t) in lts.transitions])


def test_each_branching_stage_is_in_its_own_stage_order():
    rng = random.Random(31)
    tied = tie_free_beside_a_tie = 0
    for i in range(40):
        X = _with_twins(rng) if i % 2 else random_lts(rng, 4, ("a", "b"), 0.5, 1.5)
        for with_stretch in (True, False):
            B = branching_sem(X, i % 4 + 1, with_stretch)
            stages = tables(B).stages.values()
            ties = [any(str(x) == str(y) for x, y in zip(stage, stage[1:])) for stage in stages]
            tied += sum(ties)
            tie_free_beside_a_tie += any(ties) * ties.count(False)
            for stage in stages:
                assert stage == _stage_sorted(stage)
    assert tied > 50 and tie_free_beside_a_tie > 20


def test_a_step_witness_is_the_first_failing_step_in_str_order_under_any_hash_seed():
    # three steps fail, in an order of the frozenset that the hash seed moves
    script = (
        "from bisimap.lts import Lts, format_witness\n"
        "from bisimap.semantics import branching_simulation_violation\n"
        "from bisimap.words import TAU\n"
        "X = Lts.make('pqr', {'a', 'b'}, [('q', 'a', 'r'), ('p', 'b', 'r'),\n"
        "                                 ('r', TAU, 'p'), ('p', 'a', 'p')])\n"
        "Y = Lts.make('uv', {'a', 'b'}, [('u', 'a', 'u')])\n"
        "f = {'p': 'u', 'q': 'u', 'r': 'v'}\n"
        "print(format_witness(branching_simulation_violation(f, X, Y)))\n"
    )
    src = str(Path(bisimap.__file__).resolve().parents[1])
    outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                           timeout=300).stdout
            for seed in ("0", "1", "2", "3", "4")}
    assert outs == {b"visible: p -b-> r\n"}

import dataclasses

import pytest

import bisimap.presheaf as presheaf_mod
from bisimap import (
    Lts,
    PreconditionError,
    UnsupportedError,
    dump_presheaf,
    enumerate_mono_squares,
    is_bisim_map_bounded,
)
from bisimap.lts import Execution
from bisimap.presheaf import (
    FinPoset,
    NatTrans,
    _stage_sorted,
    barred_source_poset,
    branching_target_poset,
    fair_target_poset,
    make_presheaf,
    nat_trans,
    word_poset,
)
from bisimap.semantics import (
    base_presheaf, branching_sem, branching_sem_map, fair_sem, fair_sem_map, strong_sem,
    strong_sem_map,
)
from bisimap.words import EPSILON, TAU, TAU_BAR, LassoTrace, StretchPoint, Word, element_key

from conftest import identity_trans, lts_of
from oracles import (
    MonoSquare,
    MonotoneMap,
    build_square,
    element_at,
    elements_poset,
    empty_presheaf,
    find_filler,
    hiding_map,
    identity_map,
    inclusion,
    is_mono,
    left_kan,
    naturality_violations,
    poset_from_leq,
    poset_leq,
    sub_presheaf,
    tables,
    validate,
)


def order_isomorphic(P: FinPoset, Q: FinPoset) -> bool:
    """Pairing P's and Q's elements in sort order is an order isomorphism."""
    pairs = list(zip(P.elements, Q.elements))
    return len(P.elements) == len(Q.elements) and all(
        poset_leq(P, a, a2) == poset_leq(Q, b, b2) for (a, b) in pairs for (a2, b2) in pairs)


def time_poset(depth: int) -> FinPoset:
    return poset_from_leq(range(depth + 1), lambda a, b: a <= b)


def word_length_presheaf(labels, depth: int):
    """Stage n holds the words of length exactly n; the action truncates."""
    labels = tuple(labels)
    by_len = {0: [EPSILON]}
    for n in range(1, depth + 1):
        by_len[n] = [w.append(l) for w in by_len[n - 1] for l in labels]
    return make_presheaf(
        time_poset(depth),
        {n: _stage_sorted(ws) for n, ws in by_len.items()},
        lambda w, frm, to: Word(w[:to]),
    )


def stretch_word_presheaf(labels, depth: int):
    """As word_length_presheaf, plus the stretchable observation at every
    positive tick; it truncates to the empty word at tick zero and stays put
    otherwise."""
    words = word_length_presheaf(labels, depth)

    def stage(n):
        return _stage_sorted(tables(words).stage(n) + ((TAU_BAR,) if n > 0 else ()))

    def act(x, frm, to):
        if x is TAU_BAR:
            return EPSILON if to == 0 else TAU_BAR
        return Word(x[:to])

    return make_presheaf(time_poset(depth), {n: stage(n) for n in range(depth + 1)}, act)


# ---------------------------------------------------------------------------
# Validation


def test_stretch_observation_presheaf_is_valid():
    O = stretch_word_presheaf(("a", TAU), 4)
    assert validate(O).ok


def test_one_stage_presheaf_is_valid():
    base = poset_from_leq([0], lambda a, b: a <= b)
    F = make_presheaf(base, dict.fromkeys(base.elements, ["u", "v"]), lambda x, frm, to: x)
    assert validate(F).ok


def _diamond_leq(a, b):
    # 0 below 1 and 2, both below 3: two cover paths from 3 down to 0
    return a == b or a == 0 or b == 3


def test_corrupted_restriction_reported_with_triple():
    # two cover paths that could disagree need a diamond, and a base is a
    # forest: the diamond is refused, naming the element above the split
    with pytest.raises(PreconditionError, match="the elements below 3 are not a chain"):
        poset_from_leq([0, 1, 2, 3], _diamond_leq)


# ---------------------------------------------------------------------------
# Posets


def _words(labels, depth):
    out = [EPSILON]
    for _ in range(depth):
        out += [w.append(l) for w in out if len(w) == len(out[-1]) for l in labels]
    return out


def _scan_order(extra_leq):
    def leq(a, b):
        if isinstance(a, Word) and isinstance(b, Word):
            return a.is_prefix_of(b)
        return extra_leq(a, b)

    return leq


def test_prefix_built_posets_equal_pairwise_comparison(corpus):
    traces = [e for e in fair_sem(corpus.union_sys.system, 2).base.elements
              if isinstance(e, LassoTrace)]
    assert traces
    cases = [
        (word_poset(("a", "b"), 3), _words(("a", "b"), 3), lambda a, b: False),
        (barred_source_poset(("a", TAU), 3),
         _words(("a", TAU), 3) + [StretchPoint(n) for n in (1, 2, 3)],
         lambda a, b: (a == EPSILON and isinstance(b, StretchPoint))
         or (isinstance(a, StretchPoint) and isinstance(b, StretchPoint) and a.tick <= b.tick)),
        (branching_target_poset(("a", "b"), 2), _words(("a", "b"), 2) + [TAU_BAR],
         lambda a, b: b is TAU_BAR and (a == EPSILON or a is TAU_BAR)),
        (fair_target_poset(("a",), 3, traces), _words(("a",), 3) + traces,
         lambda a, b: isinstance(b, LassoTrace) and (
             a == b or (isinstance(a, Word) and a == b.word_prefix(len(a))))),
    ]
    for built, elems, extra_leq in cases:
        leq = _scan_order(extra_leq)
        reference = poset_from_leq(elems, leq)
        assert built.elements == reference.elements
        assert built.parent == reference.parent
        assert built == reference
        for a in elems:
            for b in elems:
                assert poset_leq(built, a, b) == leq(a, b), (a, b)


def test_branching_target_base_is_reused_for_its_label_set_and_depth(corpus):
    def fresh(labels, depth):
        return presheaf_mod._prefix_poset(labels, depth, [TAU_BAR], lambda e: EPSILON)

    base = branching_target_poset(("a", "b"), 3)
    assert branching_target_poset(["a", "b"], 3) is base
    assert branching_target_poset(["b", "a"], 3) is base
    assert branching_target_poset(("b", "a", "a"), 3) is base
    assert base == fresh(["a", "b"], 3)
    assert branching_target_poset(("a", "b"), 2) is not base
    assert branching_target_poset(("a",), 3) is not base
    with pytest.raises(PreconditionError, match="visible labels only"):
        branching_target_poset(["a", TAU], 3)
    # the other bases are built on every call
    assert word_poset(("a", "b"), 3) is not word_poset(("a", "b"), 3)
    assert fair_target_poset(("a",), 2, ()) is not fair_target_poset(("a",), 2, ())

    # lifts over the cached base leave it as a fresh build leaves it
    branch = corpus.branch
    labels = sorted(branch.source.alphabet | branch.target.alphabet)
    for depth in (2, 4):
        for _ in range(2):
            lifted = branching_sem_map(branch.mapping, branch.source, branch.target, depth)
            assert lifted.source.base is branching_target_poset(labels, depth)
            is_bisim_map_bounded(lifted)
        cached, built = branching_target_poset(labels, depth), fresh(labels, depth)
        assert cached == built
        assert [cached.down(e) for e in cached.elements] == [built.down(e) for e in built.elements]


def _maximal_below_by_scan(P, e):
    below = [x for x in P.elements if x != e and poset_leq(P, x, e)]
    return tuple(x for x in below if not any(y != x and poset_leq(P, x, y) for y in below))


def test_covers_are_the_maximal_elements_strictly_below(corpus):
    traces = [e for e in fair_sem(corpus.union_sys.system, 2).base.elements
              if isinstance(e, LassoTrace)]
    posets = [
        word_poset(("a", "b"), 3),
        barred_source_poset(("a", TAU), 3),
        branching_target_poset(("a", "b"), 2),
        fair_target_poset(("a",), 3, traces),
    ]
    for P in posets:
        assert P.elements == tuple(sorted(P.elements, key=element_key))
        for e in P.elements:
            parent = P.parent[e]
            assert _maximal_below_by_scan(P, e) == (() if parent is None else (parent,))


def test_poset_index_matches_relation_scan():
    P = barred_source_poset(("a", TAU), 2)
    assert P.elements == tuple(sorted(P.elements, key=element_key))
    for e in P.elements:
        assert P.down(e) == tuple(x for x in P.elements if poset_leq(P, x, e))
    assert P.down(Word.of("b")) == ()
    # the public constructor: each element's parent, or None for a root
    V = FinPoset((0, 1, 2), {0: None, 1: 0, 2: 0})
    assert V.down(2) == (0, 2) and V.parent[0] is None
    assert poset_leq(V, 0, 1) and not poset_leq(V, 1, 2) and not poset_leq(V, 2, 1)
    with pytest.raises(PreconditionError, match="cycle"):
        FinPoset((0, 1), {0: 1, 1: 0}).down(0)


def test_monotone_map_refuses_a_map_that_breaks_a_parent_link():
    base = word_poset(("a", "b"), 1)
    a, b = Word.of("a"), Word.of("b")
    MonotoneMap(base, base, {EPSILON: EPSILON, a: b, b: a})
    with pytest.raises(PreconditionError, match=r"not order-preserving at \(eps, a\)"):
        MonotoneMap(base, base, {EPSILON: a, a: EPSILON, b: a})


# ---------------------------------------------------------------------------
# Stage order


def test_stage_order_breaks_print_ties_by_repr():
    # the states 1 and "1" print alike, and so do their executions
    lts = Lts.make((1, "1"), {"a"}, [(1, "a", 1), ("1", "a", "1")])
    F = tables(strong_sem(lts, 2))
    for e in F.base.elements:
        assert F.stage(e) == tuple(sorted(F.stage(e), key=lambda x: (str(x), repr(x))))
    tied = F.stage(Word.of("a"))
    assert len(tied) == 2 and str(tied[0]) == str(tied[1])
    # the order is the same whatever order the elements come in
    for listed in (tied, tied[::-1]):
        assert presheaf_mod._stage_sorted(listed) == tied
    # make_presheaf keeps each stage in the order it is given in
    G = make_presheaf(F.base, {**F.stages, Word.of("a"): tied[::-1]}, F.restrict)
    assert tables(G).stage(Word.of("a")) == tied[::-1]
    # behind silent steps the tie falls inside a visible stage and inside
    # the stretch stage of the branching construction
    hidden = Lts.make((0, "0", 1, "1"), {"a"},
                      [(0, TAU, 1), ("0", TAU, "1"), (1, "a", 1), ("1", "a", "1")])
    for with_stretch in (True, False):
        B = tables(branching_sem(hidden, 2, with_stretch))
        ties = [e for e in B.stages
                if any(str(x) == str(y) for x, y in zip(B.stage(e), B.stage(e)[1:]))]
        assert ties == [EPSILON, Word.of("a"), Word.of("a", "a")] + [TAU_BAR] * with_stretch
        for e in B.stages:
            assert B.stage(e) == tuple(sorted(B.stage(e), key=lambda x: (str(x), repr(x))))
    tied = B.stage(Word.of("a"))
    assert str(tied[0]) == str(tied[1]) and repr(tied[0]) < repr(tied[1])


def test_make_presheaf_stores_only_nonempty_stages_and_refuses_foreign_keys():
    base = word_poset(("a", "b"), 2)
    F = make_presheaf(base, {Word.of("b"): ["y"], EPSILON: ["x"], Word.of("a"): []},
                      lambda x, frm, to: "x")
    # numbered stage by stage in base order; the root stage's parent is unread
    assert F.elements == ["x", "y"] and F.parent == [None, 0]
    assert F.stages == {EPSILON: range(1), Word.of("b"): range(1, 2)}
    assert F.stage(Word.of("a")) == ()
    assert tables(F).res == {Word.of("b"): {"y": "x"}}
    for stages in ({Word.of("c"): ["x"]}, {EPSILON: ["x"], Word.of("c"): []}):
        with pytest.raises(PreconditionError, match="c is not an element of the base"):
            make_presheaf(base, stages, lambda x, frm, to: x)
    # a rule value outside the lower stage, or a lower stage that is empty
    for stages in ({EPSILON: ["x"], Word.of("b"): ["y"]}, {Word.of("b"): ["y"]}):
        with pytest.raises(PreconditionError, match="restriction of y from b to eps leaves its stage"):
            make_presheaf(base, stages, lambda x, frm, to: "z")
    # a component value outside the target stage
    with pytest.raises(PreconditionError, match="image of y at b leaves the target stage"):
        nat_trans(F, F, lambda e, x: "x")


# ---------------------------------------------------------------------------
# Monos


def test_inclusions_are_mono():
    F = word_length_presheaf(("a",), 2)
    sub = sub_presheaf(F, [(2, element_at(F, 2, Word.of("a", "a")))])
    assert is_mono(inclusion(sub, F))


def test_identity_is_mono():
    F = word_length_presheaf(("a", "b"), 2)
    assert is_mono(identity_trans(F))


def test_collapsing_component_is_not_mono():
    base = poset_from_leq([0], lambda a, b: True)
    F = make_presheaf(base, dict.fromkeys(base.elements, ["u", "v"]), lambda x, frm, to: x)
    G = make_presheaf(base, dict.fromkeys(base.elements, ["w"]), lambda x, frm, to: x)
    assert not is_mono(nat_trans(F, G, lambda e, x: "w"))


# ---------------------------------------------------------------------------
# Fillers


def two_state_step():
    return lts_of([("s", "a", "t")])


def test_filler_for_identity_is_n():
    lts = two_state_step()
    F = strong_sem(lts, 2)
    ident = identity_trans(F)
    a = Word.of("a")
    Q = sub_presheaf(F, [(a, element_at(F, a, Execution(a, ("s", "t"))))])
    n = inclusion(Q, F)
    square = MonoSquare(
        g=identity_trans(Q), m=n, n=n, f=ident, family="adhoc"
    )
    k = find_filler(square)
    assert k is not None
    assert k.at == n.at


def test_retract_section_from_initial_square(corpus):
    # a surjective reflecting map admits a section of its semantic lift
    lts = lts_of([("u", "a", "v"), ("v", "a", "v")])
    tgt = lts_of([("w", "a", "w")])
    f = {"u": "w", "v": "w"}
    lifted = strong_sem_map(f, lts, tgt, 3)
    G = lifted.target
    P = empty_presheaf(G.base)
    square = MonoSquare(
        g=nat_trans(P, G, lambda e, x: x),
        m=NatTrans(P, lifted.source, ()),
        n=identity_trans(G),
        f=lifted,
        family="initial",
    )
    k = find_filler(square)
    assert k is not None
    for e in G.base.elements:
        for q in G.stage(e):
            assert lifted.at[k.at[q]] == q


def test_filler_rejects_non_commuting_square():
    lts = two_state_step()
    F = strong_sem(lts, 1)
    a_exec = Execution(Word.of("a"), ("s", "t"))
    Q = sub_presheaf(F, [(Word.of("a"), element_at(F, Word.of("a"), a_exec))])
    P = sub_presheaf(F, [(EPSILON, element_at(F, EPSILON, Execution.empty("t")))])
    g = nat_trans(P, Q, lambda e, x: Execution.empty("s"))
    square = MonoSquare(g=g, m=inclusion(P, F), n=inclusion(Q, F),
                        f=identity_trans(F), family="adhoc")
    with pytest.raises(PreconditionError):
        find_filler(square)


def test_unfillable_chain_square_from_fair_counterexample(corpus):
    entry = corpus.fair_rem
    lifted = fair_sem_map(entry.mapping, entry.source, entry.target, 4)
    ok, square = is_bisim_map_bounded(lifted)
    assert not ok
    assert square.family == "chain-limit"
    assert find_filler(build_square(square)) is None


# ---------------------------------------------------------------------------
# Square enumeration


def test_enumeration_includes_path_extension():
    lts = two_state_step()
    F = strong_sem(lts, 2)
    squares = list(enumerate_mono_squares(identity_trans(F)))
    a_exec = Execution(Word.of("a"), ("s", "t"))
    extensions = [sq for sq in squares if sq.family == "extension"]
    # the only extension squares are the one-step ones
    assert {(sq.about[0], sq.about[2]) for sq in extensions} == {(Word.of("a"), EPSILON)}
    assert any((sq.about[0], F.elements[sq.about[1]]) == (Word.of("a"), a_exec) for sq in extensions)


def test_enumeration_rejects_a_base_with_a_non_chain_down_set():
    # a "V": 0 and 1 are incomparable, both below 2; no base of the stream
    # can be one, since every base is a forest
    with pytest.raises(PreconditionError, match="the elements below 2 are not a chain"):
        poset_from_leq([0, 1, 2], lambda a, b: a == b or b == 2)


def test_parent_links_that_form_a_cycle_are_refused_at_construction():
    with pytest.raises(PreconditionError, match="the parent links form a cycle"):
        FinPoset((0, 1, 2), {0: None, 1: 2, 2: 1})


def test_enumeration_contains_chain_limit_of_alternating_lasso(corpus):
    sys = corpus.union_sys.system
    f = {s: s for s in sys.lts.states}
    lifted = fair_sem_map(f, sys, sys, 4)
    found = [
        sq for sq in enumerate_mono_squares(lifted)
        if sq.family == "chain-limit" and isinstance(sq.about[0], LassoTrace)
    ]
    assert found
    # the alternating trace is covered by the stream
    lassos = [lifted.target.elements[sq.about[1]] for sq in found]
    assert any(str(lasso.cycle_states) for lasso in lassos)
    assert any(set(lasso.cycle_states) == {"x1", "y1"} for lasso in lassos)


def test_identity_is_bisim_map_at_any_bound():
    lts = two_state_step()
    for depth in (1, 2, 3):
        ok, witness = is_bisim_map_bounded(identity_trans(strong_sem(lts, depth)))
        assert ok and witness is None


# ---------------------------------------------------------------------------
# Meets


def test_filtered_colimit_requires_meets():
    # a and b lie below a.a but have no meet; such an order is not a forest,
    # so no base is one
    elems = [Word.of("a"), Word.of("b"), Word.of("a", "a")]

    def leq(u, v):
        return u == v or (u in (Word.of("a"), Word.of("b")) and v == Word.of("a", "a"))

    with pytest.raises(PreconditionError, match="the elements below a.a are not a chain"):
        poset_from_leq(elems, leq)


# ---------------------------------------------------------------------------
# Left Kan extension


def test_left_kan_identity_is_isomorphic():
    lts = two_state_step()
    F = strong_sem(lts, 2)
    K = tables(left_kan(identity_map(F.base), F))
    for e in F.base.elements:
        assert {v for (_, v) in K.stage(e)} == set(tables(F).stage(e))


def test_left_kan_rejects_non_hiding_maps():
    base = word_poset(("a", "b"), 1)
    swap = {EPSILON: EPSILON, Word.of("a"): Word.of("b"), Word.of("b"): Word.of("a")}
    h = MonotoneMap(base, base, swap)
    F = make_presheaf(base, dict.fromkeys(base.elements, ["x"]), lambda x, frm, to: x)
    with pytest.raises(UnsupportedError):
        left_kan(h, F)


def test_left_kan_chain_example(chain):
    F = base_presheaf(chain, 3)
    tgt = word_poset(sorted(chain.alphabet), 3)
    K = tables(left_kan(hiding_map(F.base, tgt), F))
    a = Word.of("a")
    assert {v for (_, v) in K.stage(a)} == {
        Execution(Word.of(TAU, "a"), ("x0", "x1", "x2")),
        Execution(Word.of("a"), ("x1", "x2")),
    }
    long_exec = Execution(Word.of(TAU, "a"), ("x0", "x1", "x2"))
    img = K.restrict((Word.of(TAU, "a"), long_exec), a, EPSILON)
    assert img[1] == Execution.empty("x0")


# ---------------------------------------------------------------------------
# Category of elements


def test_elements_of_word_length_presheaf():
    A = word_length_presheaf(("0", "1"), 3)
    result = elements_poset(A)
    assert order_isomorphic(result.simplified, word_poset(("0", "1"), 3))


def test_elements_of_constant_singleton_is_chain():
    base = time_poset(2)
    F = make_presheaf(base, dict.fromkeys(base.elements, ["*"]), lambda x, frm, to: x)
    result = elements_poset(F)
    objs = result.raw.elements
    assert len(objs) == 3
    assert all(
        poset_leq(result.raw, a, b) or poset_leq(result.raw, b, a) for a in objs for b in objs
    )


def test_elements_of_stretch_presheaf():
    O = stretch_word_presheaf(("a", TAU), 2)
    result = elements_poset(O)
    simple = result.simplified
    assert poset_leq(simple, StretchPoint(1), StretchPoint(2))
    assert poset_leq(simple, EPSILON, StretchPoint(1))
    assert not poset_leq(simple, Word.of("a"), StretchPoint(1))


def test_elements_of_stretch_without_marks_matches_plain_words():
    O = stretch_word_presheaf(("a", TAU), 2)
    A_tau = word_length_presheaf(("a", TAU), 2)
    eo = elements_poset(O)
    ea = elements_poset(A_tau)
    keep = [e for e in eo.simplified.elements if not isinstance(e, StretchPoint)]
    restricted = poset_from_leq(keep, lambda a, b: poset_leq(eo.simplified, a, b))
    assert order_isomorphic(restricted, ea.simplified)


# ---------------------------------------------------------------------------
# Dump format


def test_dump_is_stable(chain):
    F = base_presheaf(chain, 2)
    first = dump_presheaf(F)
    second = dump_presheaf(base_presheaf(chain, 2))
    assert first == second
    assert "stage tau.a: {x0 -tau-> x1 -a-> x2}" in first
    assert "res tau.a -> tau: x0 -tau-> x1 -a-> x2 |-> x0 -tau-> x1" in first


GOLDEN_CHAIN_BRANCHING_DEPTH_1 = """\
stage eps: {x0, x1, x2}
stage a: {x1 -a-> x2}
stage tau_bar: {x0, x0 -tau-> x1, x1, x2}
res a -> eps: x1 -a-> x2 |-> x1
res tau_bar -> eps: x0 |-> x0
res tau_bar -> eps: x0 -tau-> x1 |-> x0
res tau_bar -> eps: x1 |-> x1
res tau_bar -> eps: x2 |-> x2
"""


def test_dump_golden(chain):
    from bisimap.semantics import branching_sem

    assert dump_presheaf(branching_sem(chain, 1)) == GOLDEN_CHAIN_BRANCHING_DEPTH_1


def test_validate_catches_codomain_escape():
    F = word_length_presheaf(("a",), 2)
    assert F.base.parent[1] == 0
    a = element_at(F, 1, Word.of("a"))
    parent = list(F.parent)
    parent[a] = a  # the restriction 1 -> 0 of a leaves stage 0
    broken = dataclasses.replace(F, parent=tuple(parent))
    report = validate(broken)
    assert not report.ok
    assert report.violations == (("codomain", 0, 1, Word.of("a")),)


def test_naturality_violations_detected():
    base = poset_from_leq([0, 1], lambda a, b: a <= b)
    F = make_presheaf(base, dict.fromkeys(base.elements, ["u", "v"]), lambda x, frm, to: x)
    broken = nat_trans(F, F, lambda e, x: ("v" if (e, x) == (1, "u") else x))
    assert any(v[0] == "naturality" for v in naturality_violations(broken))


def test_failed_fiber_square_witnesses_non_surjectivity(monkeypatch):
    src = lts_of([("u", "a", "u")])
    tgt = lts_of([("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")])
    lifted = strong_sem_map({"u": "p"}, src, tgt, 2)

    def no_build(*args):
        raise AssertionError("the decision builds no square")

    with monkeypatch.context() as patch:
        for name in ("make_presheaf", "nat_trans"):
            patch.setattr(presheaf_mod, name, no_build)
        ok, square = is_bisim_map_bounded(lifted)
    assert not ok
    # q, the empty execution at q, has no preimage
    assert str(square) == "fiber square [eps, q]"
    assert find_filler(build_square(square)) is None


def test_fiber_index_is_stored_only_once_complete():
    # the index is built from the array at construction; a look-up reads
    # only the index
    base = poset_from_leq([0, 1], lambda a, b: a <= b)
    F = make_presheaf(base, dict.fromkeys(base.elements, ["u", "v", "w"]), lambda x, frm, to: x)
    reads = []

    class Watched(tuple):
        def __getitem__(self, x):
            reads.append(x)
            return super().__getitem__(x)

    nt = NatTrans(F, F, Watched(nat_trans(F, F, lambda e, x: "u" if x == "v" else x).at))
    assert sorted(reads) == list(range(F.total_elements()))
    u, v, w = F.stage(1)
    assert nt.fiber(1, u) == [u, v]
    assert nt.fiber(1, w) == [w] and nt.fiber(1, v) == [] and nt.fiber(2, u) == []
    assert len(reads) == F.total_elements()

from hypothesis import given, strategies as st

from bisimap.words import (
    EPSILON,
    TAU,
    LassoTrace,
    StretchPoint,
    TAU_BAR,
    Word,
    element_key,
)

from oracles import hide, meet

letters = st.sampled_from(["a", "b", TAU])
words = st.lists(letters, max_size=6).map(lambda ls: Word(tuple(ls)))


@given(words, words)
def test_meet_is_longest_common_prefix(u, v):
    m = meet(u, v)
    assert m.is_prefix_of(u) and m.is_prefix_of(v)
    if len(m) < min(len(u), len(v)):
        assert u[len(m)] != v[len(m)]


@given(words, words, words)
def test_prefix_order_laws(u, v, w):
    assert u.is_prefix_of(u)
    if u.is_prefix_of(v) and v.is_prefix_of(u):
        assert u == v
    if u.is_prefix_of(v) and v.is_prefix_of(w):
        assert u.is_prefix_of(w)


@given(words)
def test_element_key_refines_prefix_order(u):
    for p in u.prefixes():
        if p != u:
            assert element_key(p) < element_key(u)


def test_hide_examples():
    assert hide(Word.of("a", TAU, "b")) == Word.of("a", "b")
    assert hide(EPSILON) == EPSILON
    assert hide(StretchPoint(3), barred=True) is TAU_BAR


def test_hide_does_not_preserve_meets():
    # the meet of a.tau.b and a.b hides to a shorter word than the meet of
    # their hidings
    u, v = Word.of("a", TAU, "b"), Word.of("a", "b")
    assert hide(meet(u, v)) == Word.of("a")
    assert meet(hide(u), hide(v)) == Word.of("a", "b")


def test_lasso_trace_canonical():
    t = LassoTrace.canonical(("a",), ("a",))
    assert t.prefix == () and t.cycle == ("a",)
    t2 = LassoTrace.canonical(("b", "a", "a"), ("a", "a"))
    assert t2.prefix == ("b",) and t2.cycle == ("a",)
    assert t2.unroll(4) == ("b", "a", "a", "a")


@given(
    st.lists(st.sampled_from("ab"), max_size=3),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=3),
)
def test_lasso_trace_unrolling_invariance(prefix, cycle, k):
    t = LassoTrace.canonical(tuple(prefix), tuple(cycle))
    # shifting the prefix boundary along the cycle denotes the same trace
    shifted = LassoTrace.canonical(
        tuple(prefix) + tuple(cycle) * k, tuple(cycle)
    )
    assert shifted == t

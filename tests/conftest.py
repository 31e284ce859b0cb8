import random

import pytest

from bisimap import Lts, load_corpus
from bisimap.errors import PreconditionError
from bisimap.lts import is_execution_of
from bisimap.presheaf import (
    FinPoset,
    FinPresheaf,
    NatTrans,
    make_presheaf,
    nat_trans,
    time_poset,
    word_length_presheaf,
)
from bisimap.words import EPSILON, TAU, TAU_BAR


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def chain(corpus):
    return corpus.chain


def lts_of(triples, extra_states=(), alphabet=None):
    """Build a system from (src, label, tgt) triples; 'tau' means silent."""
    fixed = [
        (s, TAU if l == "tau" else l, t) for (s, l, t) in triples
    ]
    states = []
    for (s, _, t) in fixed:
        for q in (s, t):
            if q not in states:
                states.append(q)
    for q in extra_states:
        if q not in states:
            states.append(q)
    labs = alphabet if alphabet is not None else {
        l for (_, l, _) in fixed if l is not TAU
    }
    return Lts.make(tuple(states), labs, fixed)


def random_lts(rng: random.Random, max_states: int, labels, tau_prob: float = 0.0,
               density: float = 1.2) -> Lts:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    labels = tuple(labels)
    transitions = set()
    target_count = max(1, round(density * n))
    for _ in range(target_count):
        src = rng.choice(states)
        tgt = rng.choice(states)
        if tau_prob and rng.random() < tau_prob:
            lab = TAU
        else:
            lab = rng.choice(labels)
        transitions.add((src, lab, tgt))
    return Lts.make(states, set(labels), transitions)


def random_total_map(rng: random.Random, source: Lts, target: Lts) -> dict:
    return {s: rng.choice(target.states) for s in source.states}


def is_lasso_of(lts: Lts, lasso) -> bool:
    """Does the lasso unroll to a valid infinite run of the system?"""
    if not is_execution_of(lts, lasso.stem):
        return False
    at = lasso.stem.last
    for (lab, tgt) in lasso.cycle:
        if not lts.has_transition(at, lab, tgt):
            return False
        at = tgt
    return True


def identity_trans(F: FinPresheaf) -> NatTrans:
    return nat_trans(F, F, lambda e, x: x)


def compose_trans(outer: NatTrans, inner: NatTrans) -> NatTrans:
    if outer.source is not inner.target and outer.source != inner.target:
        raise PreconditionError("composition mismatch")
    return nat_trans(inner.source, outer.target, lambda e, x: outer.at(e, inner.at(e, x)))


def order_isomorphic(P: FinPoset, Q: FinPoset, mapping=None) -> bool:
    """Check order-isomorphism; with ``mapping`` verify that specific bijection,
    otherwise try the canonical sort-order pairing."""
    if len(P.elements) != len(Q.elements):
        return False
    if mapping is None:
        mapping = dict(zip(P.elements, Q.elements))
    fwd = mapping
    if len(set(fwd.values())) != len(fwd):
        return False
    return all(
        P.leq(a, b) == Q.leq(fwd[a], fwd[b])
        for a in P.elements
        for b in P.elements
    )


def stretch_word_presheaf(labels, depth: int) -> FinPresheaf:
    """As word_length_presheaf, plus the stretchable observation at every
    positive tick; it truncates to the empty word at tick zero and stays put
    otherwise."""
    words = word_length_presheaf(labels, depth)

    def stage(n):
        return words.stage(n) + ((TAU_BAR,) if n > 0 else ())

    def act(x, frm, to):
        if x is TAU_BAR:
            return EPSILON if to == 0 else TAU_BAR
        return x.prefix(to)

    return make_presheaf(time_poset(depth), stage, act)

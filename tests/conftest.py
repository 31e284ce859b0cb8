"""Fixtures, small systems and the seeded generator families.

The families draw random systems and maps: ``random_lts``,
``random_fair_system`` (with ``random_fairness``), ``block_map`` (a random
map of states into at most k blocks) and ``image_system`` (the system a map
of a system's states is a simulation onto).  The rows of
``oracles.ORACLES`` and the law and acceptance tests draw from them; their
streams are pinned by those tests' seeds, so a change to a draw changes
every stream that uses it.
"""

import random

import pytest

from bisimap import Lts, load_corpus
from bisimap.lts import AlwaysAfterSpec, FairLts, StreettSpec
from bisimap.presheaf import FinPresheaf, NatTrans, nat_trans
from bisimap.errors import PreconditionError
from bisimap.words import TAU


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def chain(corpus):
    return corpus.chain


def plain_systems(corpus) -> dict:
    """Every bundled plain transition system, by name."""
    return {
        "CHAIN": corpus.chain,
        "SYS_BRANCH": corpus.branch.combined,
        "SYS_BRANCH_SRC": corpus.branch.source,
        "SYS_BRANCH_TGT": corpus.branch.target,
        "SYS_FAIR_REM_SRC": corpus.fair_rem.source.lts,
        "SYS_FAIR_REM_TGT": corpus.fair_rem.target.lts,
        "SYS_UNION": corpus.union_sys.system.lts,
        "SYS_COMP": corpus.comp.system.lts,
    }


def fair_systems(corpus) -> dict:
    """Every bundled fair system, by name."""
    return {
        "SYS_FAIR_REM_SRC": corpus.fair_rem.source,
        "SYS_FAIR_REM_TGT": corpus.fair_rem.target,
        "SYS_UNION": corpus.union_sys.system,
        "SYS_COMP": corpus.comp.system,
    }


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


def complete_system(states, labels) -> Lts:
    """Every step between any two states, silent ones included, so that any
    map into it passes the step checks and only stuttering can fail."""
    return lts_of([(y, l, z) for y in states for z in states for l in (*labels, "tau")])


def stutter_fan():
    """p fans out by silent steps to q1, q2, q3, which all go on to r; the
    map sends the fan onto a silent star around A, so p, qi, r stutters for
    every i.  Returns (map, source, target)."""
    src = lts_of([("p", "tau", q) for q in ("q1", "q2", "q3")]
                 + [(q, "tau", "r") for q in ("q1", "q2", "q3")])
    tgt = lts_of([("A", "tau", y) for y in "BCD"] + [(y, "tau", "A") for y in "BCD"])
    return {"p": "A", "q1": "B", "q2": "C", "q3": "D", "r": "A"}, src, tgt


# ---------------------------------------------------------------------------
# Generator families


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


def _some_states(rng: random.Random, lts: Lts) -> frozenset:
    return frozenset(s for s in lts.states if rng.random() < 0.5)


def random_streett(rng: random.Random, lts: Lts) -> StreettSpec:
    return StreettSpec(tuple((_some_states(rng, lts), _some_states(rng, lts))
                             for _ in range(rng.randint(0, 2))))


def random_fairness(rng: random.Random, lts: Lts, labels):
    """A random Streett condition (half the time) or positional one."""
    if rng.random() < 0.5:
        return random_streett(rng, lts)
    gate = tuple(rng.choice(labels) for _ in range(rng.randint(0, 1)))
    return AlwaysAfterSpec(rng.randint(0, 1), _some_states(rng, lts), gate)


def random_fair_system(rng: random.Random, labels, max_states: int = 3,
                       streett_only: bool = False) -> FairLts:
    lts = random_lts(rng, max_states, labels, density=1.8)
    return FairLts(lts, random_streett(rng, lts) if streett_only else random_fairness(rng, lts, labels))


def random_total_map(rng: random.Random, source: Lts, target: Lts) -> dict:
    return {s: rng.choice(target.states) for s in source.states}


def block_map(rng: random.Random, states, prefix: str = "b", most: int = None) -> dict:
    """A random map of the states into k blocks named ``<prefix><i>``, k
    drawn from 1 to ``most`` (default: one block per state)."""
    k = rng.randint(1, most or len(states))
    return {s: f"{prefix}{rng.randrange(k)}" for s in states}


def image_system(X: Lts, f: dict) -> Lts:
    """The images of X's steps under f, without the silent steps that f
    collapses: f is a simulation onto it."""
    steps = {(f[x], a, f[y]) for (x, a, y) in X.transitions if not (a is TAU and f[x] == f[y])}
    return Lts.make(sorted(set(f.values())), X.alphabet, steps)


def mixed_states(rng: random.Random, X: Lts) -> Lts:
    """X with each state ``s<i>`` renamed to the int i or the string "i", so
    that states of both types, and states that print alike, meet."""
    name = {s: rng.choice((int(s[1:]), s[1:])) for s in X.states}
    return Lts.make([name[s] for s in X.states], X.alphabet,
                    [(name[x], a, name[y]) for (x, a, y) in X.transitions])


# ---------------------------------------------------------------------------
# Runs and natural transformations


def is_lasso_of(lts: Lts, lasso) -> bool:
    """Does the lasso unroll to a valid infinite run of the system?"""
    states = lasso.stem.states + tuple(s for (_, s) in lasso.cycle)
    labels = tuple(lasso.stem.trace) + tuple(a for (a, _) in lasso.cycle)
    return set(states) <= set(lts.states) and all(
        lts.has_transition(*step) for step in zip(states, labels, states[1:]))


def identity_trans(F: FinPresheaf) -> NatTrans:
    return nat_trans(F, F, lambda e, x: x)


def compose_trans(outer: NatTrans, inner: NatTrans) -> NatTrans:
    if outer.source is not inner.target and outer.source != inner.target:
        raise PreconditionError("composition mismatch")
    return nat_trans(inner.source, outer.target, lambda e, x: outer.at(e, inner.at(e, x)))

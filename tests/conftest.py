import random

import pytest

from bisimap import Lts, load_corpus
from bisimap.errors import PreconditionError
from bisimap.equiv import PartitionRelation
from bisimap.lts import AlwaysAfterSpec, Execution, FairLts, Lasso, StreettSpec, adjacency
from bisimap.presheaf import (
    FinPoset,
    FinPresheaf,
    NatTrans,
    _stage_sorted,
    make_presheaf,
    nat_trans,
)
from bisimap.words import EPSILON, TAU, TAU_BAR, Word

from oracles import (
    MonoSquare, empty_presheaf, eps_closure, inclusion, poset_from_leq, poset_leq, sub_presheaf,
)


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


def stutter_fan():
    """p fans out by silent steps to q1, q2, q3, which all go on to r; the
    map sends the fan onto a silent star around A, so p, qi, r stutters for
    every i.  Returns (map, source, target)."""
    src = lts_of([("p", "tau", q) for q in ("q1", "q2", "q3")]
                 + [(q, "tau", "r") for q in ("q1", "q2", "q3")])
    tgt = lts_of([("A", "tau", y) for y in "BCD"] + [(y, "tau", "A") for y in "BCD"])
    return {"p": "A", "q1": "B", "q2": "C", "q3": "D", "r": "A"}, src, tgt


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


def random_fairness(rng: random.Random, lts: Lts, labels):
    """A random Streett condition (half the time) or positional one."""

    def some():
        return frozenset(s for s in lts.states if rng.random() < 0.5)

    if rng.random() < 0.5:
        return StreettSpec(tuple((some(), some()) for _ in range(rng.randint(0, 2))))
    gate = tuple(rng.choice(labels) for _ in range(rng.randint(0, 1)))
    return AlwaysAfterSpec(rng.randint(0, 1), some(), gate)


def random_fair_system(rng: random.Random, labels) -> FairLts:
    lts = random_lts(rng, 3, labels, density=1.8)
    return FairLts(lts, random_fairness(rng, lts, labels))


def random_total_map(rng: random.Random, source: Lts, target: Lts) -> dict:
    return {s: rng.choice(target.states) for s in source.states}


def is_execution_of(lts: Lts, p: Execution) -> bool:
    known = set(lts.states)
    if any(s not in known for s in p.states):
        return False
    return all(
        lts.has_transition(p.states[i], p.trace[i], p.states[i + 1])
        for i in range(len(p.trace))
    )


def weak_reach(lts: Lts, length_bound: int) -> frozenset:
    """The weak reachability relation up to the given visible-trace length.

    The empty-word slice is the reflexive-transitive closure of silent steps;
    longer slices extend a shorter slice by one direct visible step.
    """
    if length_bound < 0:
        raise PreconditionError("length bound must be >= 0")
    adj = adjacency(lts)
    closure = eps_closure(lts)
    slices = {EPSILON: {(x, y) for x in lts.states for y in closure[x]}}
    frontier = dict(slices)
    for _ in range(length_bound):
        nxt = {}
        for word, pairs in frontier.items():
            for a in sorted(lts.alphabet):
                grown = set()
                for (x, y) in pairs:
                    for (lab, z) in adj[y]:
                        if lab == a:
                            grown.add((x, z))
                if grown:
                    nxt[word.append(a)] = grown
        for w, pairs in nxt.items():
            slices[w] = pairs
        frontier = nxt
    return frozenset((x, w, y) for w, pairs in slices.items() for (x, y) in pairs)


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


def enumerate_graph_lassos_recursive(nodes, adj, stem_bound: int, cycle_bound: int):
    """Oracle for ``enumerate_graph_lassos``: the same canonical lassos in
    the same order, with cycles grown by recursion, one call per step."""
    cycles_from = {}

    def cycles_at(entry):
        if entry not in cycles_from:
            found = cycles_from[entry] = []

            def grow(current, steps):
                for (lab, tgt) in adj[current]:
                    nxt = steps + ((lab, tgt),)
                    if tgt == entry:
                        found.append(nxt)
                    if len(nxt) < cycle_bound:
                        grow(tgt, nxt)

            grow(entry, ())
        return cycles_from[entry]

    seen = set()
    out = []
    stems = [Execution.empty(s) for s in nodes]
    for _ in range(stem_bound + 1):
        nxt = []
        for stem in stems:
            for cyc in cycles_at(stem.last):
                lasso = Lasso(stem, cyc).canonical()
                if lasso not in seen:
                    seen.add(lasso)
                    out.append(lasso)
            for (lab, tgt) in adj[stem.last]:
                if len(stem.trace) < stem_bound:
                    nxt.append(stem.extend(lab, tgt))
        stems = nxt
    return out


def identity_trans(F: FinPresheaf) -> NatTrans:
    return nat_trans(F, F, lambda e, x: x)


def build_square(sq) -> MonoSquare:
    """The full square of a ``StreamSquare``: Q generated by its target
    generator; P empty for a ``fiber`` square, else generated by its source
    generator below."""
    f = sq.f
    F, G = f.source, f.target
    e, w = sq.about[:2]
    Q = sub_presheaf(G, [(e, w)])
    n = inclusion(Q, G)
    if sq.family == "fiber":
        P0 = empty_presheaf(G.base)
        return MonoSquare(g=NatTrans(P0, Q, {}), m=NatTrans(P0, F, {}), n=n, f=f,
                          family=sq.family, about=sq.about)
    e2, x = sq.about[2:]
    P = sub_presheaf(F, [(e2, x)])
    g = nat_trans(P, Q, lambda lo, p: G.restrict(w, e, lo))
    return MonoSquare(g=g, m=inclusion(P, F), n=n, f=f, family=sq.family, about=sq.about)


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
        poset_leq(P, a, b) == poset_leq(Q, fwd[a], fwd[b])
        for a in P.elements
        for b in P.elements
    )


def time_poset(depth: int) -> FinPoset:
    return poset_from_leq(range(depth + 1), lambda a, b: a <= b)


def word_length_presheaf(labels, depth: int) -> FinPresheaf:
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


def stretch_word_presheaf(labels, depth: int) -> FinPresheaf:
    """As word_length_presheaf, plus the stretchable observation at every
    positive tick; it truncates to the empty word at tick zero and stays put
    otherwise."""
    words = word_length_presheaf(labels, depth)

    def stage(n):
        return _stage_sorted(words.stage(n) + ((TAU_BAR,) if n > 0 else ()))

    def act(x, frm, to):
        if x is TAU_BAR:
            return EPSILON if to == 0 else TAU_BAR
        return Word(x[:to])

    return make_presheaf(time_poset(depth), {n: stage(n) for n in range(depth + 1)}, act)


# ---------------------------------------------------------------------------
# Bisimilarity oracles: the library computes branching bisimilarity by
# signature refinement; these reach the same relation by other routes


def _branching_transfer(x1, y1, pairs, adjX, eps):
    for (a, x2) in adjX[x1]:
        if a is TAU and (x2, y1) in pairs:
            continue
        ok = False
        for y in eps[y1]:
            if (x1, y) not in pairs:
                continue
            for (b, y2) in adjX[y]:
                if b == a and (x2, y2) in pairs:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def branching_bisimilarity_fixpoint(lts: Lts) -> PartitionRelation:
    """Greatest fixpoint on the pair lattice: start from the universal
    relation and discard pairs whose transfer property fails, until stable."""
    adjX = adjacency(lts)
    eps = eps_closure(lts)
    pairs = {(x, y) for x in lts.states for y in lts.states}
    changed = True
    while changed:
        changed = False
        for (x, y) in sorted(pairs):
            if not (_branching_transfer(x, y, pairs, adjX, eps)
                    and _branching_transfer(y, x, pairs, adjX, eps)):
                pairs.discard((x, y))
                pairs.discard((y, x))
                changed = True
    return PartitionRelation(tuple(lts.states), frozenset(pairs))


def _strong_obligation_options(x, y, move, adjX):
    (a, x2) = move
    return [
        frozenset({(x2, y2), (y2, x2)})
        for (b, y2) in adjX[y]
        if b == a
    ]


def _branching_obligation_options(x, y, move, adjX, eps):
    (a, x2) = move
    options = []
    if a is TAU:
        options.append(frozenset({(x2, y), (y, x2)}))
    for ymid in sorted(eps[y]):
        for (b, y2) in adjX[ymid]:
            if b == a:
                options.append(
                    frozenset({(x, ymid), (ymid, x), (x2, y2), (y2, x2)})
                )
    return options


def brute_force_largest(lts: Lts, kind: str) -> PartitionRelation:
    """Independent oracle: for each state pair, search by backtracking for a
    symmetric relation containing it that is closed under the transfer
    property; the union of all witnesses is the largest such relation."""
    if len(lts.states) > 7:
        raise PreconditionError("oracle is guarded to at most 7 states")
    if kind not in ("strong", "branching"):
        raise PreconditionError(f"unknown kind {kind!r}")
    adjX = adjacency(lts)
    eps = eps_closure(lts) if kind == "branching" else None
    identity = frozenset((s, s) for s in lts.states)

    def options_for(x, y, move):
        if kind == "strong":
            return _strong_obligation_options(x, y, move, adjX)
        return _branching_obligation_options(x, y, move, adjX, eps)

    def solve(pairs, pending):
        if not pending:
            return True
        (x, y) = pending[0]
        rest = pending[1:]
        return satisfy_moves(pairs, list(adjX[x]), x, y, rest)

    def satisfy_moves(pairs, moves, x, y, rest):
        if not moves:
            return solve(pairs, rest)
        move = moves[0]
        for opt in options_for(x, y, move):
            new = opt - pairs
            grown = pairs | new
            extra = [p for p in sorted(new)]
            if satisfy_moves(grown, moves[1:], x, y, rest + extra):
                return True
        return False

    winners = set(identity)
    for x in lts.states:
        for y in lts.states:
            if x >= y or (x, y) in winners:
                continue
            seed = frozenset({(x, y), (y, x)}) | identity
            if solve(seed, [(x, y), (y, x)]):
                winners.add((x, y))
                winners.add((y, x))
    return PartitionRelation(tuple(lts.states), frozenset(winners))

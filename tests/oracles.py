"""Constructions that only the tests call.

The library keeps the decision engine: bases, presheaves, natural
transformations, the square stream and its generator decision.  What is
here builds presheaves and relations the tests compare the engine with (the
paper's left Kan extension along a hiding map, the category of elements,
sub-presheaves and inclusions for full squares, and presheaves held as
stage and restriction tables, ``TablePresheaf``), checks its outputs
(``validate``, ``naturality_violations``), holds full mono squares
(``MonoSquare``) with the checks around the library's generic filler search
(``find_filler``), and gives slower forms of the library's searches to
compare with.  ``ORACLES``, at the end, holds each fast path to its slow
form on seeded cases; ``tests/test_oracles.py`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from types import GeneratorType

from bisimap.equiv import (
    _EXACT_KINDS, ImageFairness, PartitionRelation, Verdict, _aa_init, _aa_step, _bfs_path,
    _node_key, _nontrivial, _reflection_violation, _sccs, _split_pair_lasso, _steps_to,
    _transfer_violation, _unreached, branching_bisimilarity, branching_quotient, check_bisim_map,
    check_branching_bisim_fn, check_branching_sim, check_fair_bisim_fn, check_fair_reflection,
    check_fair_sim, check_forall_fair_bisim, check_hildebrandt_open, check_strong_bisim_fn,
    exists_fair_run, exists_violating_run, forall_fair_quotient, quotient_lts,
)
from bisimap.errors import InternalCheckError, PreconditionError, UnsupportedError
from bisimap.lts import (
    AlwaysAfterSpec, Execution, FairLts, Lasso, Lts, StreettSpec, adjacency, enumerate_graph_lassos,
    execution_tree, executions_up_to, fair_lassos, format_witness, is_simulation, reach, restrict,
    state_key,
)
from bisimap import presheaf
from bisimap.presheaf import (
    FinPoset, FinPresheaf, NatTrans, StreamSquare, _stage_sorted, barred_source_poset,
    branching_target_poset, enumerate_mono_squares, fair_target_poset, is_bisim_map_bounded,
    make_presheaf, nat_trans, word_poset,
)
from bisimap.semantics import (
    base_presheaf, branching_sem, branching_sem_map, branching_simulation_violation,
    fair_mismatches, fair_sem_map, fair_simulation_violation, strong_sem_map,
)
from bisimap.words import (
    EPSILON, TAU, TAU_BAR, LassoTrace, StretchPoint, Word, element_key, label_key,
)

from conftest import (
    block_map, complete_system, image_system, is_lasso_of, mixed_states, random_fair_system,
    random_fairness,
    random_lts, random_total_map,
)

# ---------------------------------------------------------------------------
# Words and relations


def hide(element, barred: bool = False):
    """Delete silent letters from a word; with ``barred`` also collapse every
    stretch point to the single stretchable observation."""
    if isinstance(element, Word):
        return element.visible()
    if isinstance(element, StretchPoint):
        if not barred:
            raise PreconditionError("stretch points only hide in barred mode")
        return TAU_BAR
    raise PreconditionError(f"cannot hide {element!r}")


def meet(u: Word, v: Word) -> Word:
    """The longest common prefix of two words."""
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return Word(u[:n])


def identity_relation(universe) -> PartitionRelation:
    return PartitionRelation(tuple(universe), frozenset((s, s) for s in universe))


def symmetric_closure(R: PartitionRelation) -> PartitionRelation:
    return PartitionRelation(R.universe, R.pairs | {(b, a) for (a, b) in R.pairs})


def equivalence_closure_fixpoint(R: PartitionRelation) -> PartitionRelation:
    """The least equivalence containing R, by adding composed pairs until
    none is new (the library takes the components of the links)."""
    pairs = set(R.pairs) | {(b, a) for (a, b) in R.pairs}
    pairs |= {(s, s) for s in R.universe}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return PartitionRelation(R.universe, frozenset(pairs))


def extend_reduction(g: dict, source: Lts, mid: Lts):
    """Compose a reduction with the quotient map of its target, yielding a
    stuttering-respecting quotient map.  Returns (target system, composite)."""
    quotient, q = branching_quotient(mid)
    return quotient, {s: q[g[s]] for s in source.states}


# ---------------------------------------------------------------------------
# Posets and presheaves


def poset_from_leq(elements, leq) -> FinPoset:
    """The elements ordered by ``leq``, sorted by ``element_key``; elements
    outside that key's family (pairs from the category of elements) sort
    after them, by str and repr.  Each element's parent is the greatest
    element strictly below it; the order must be a forest, and any other
    raises ``PreconditionError``."""

    def key(e):
        try:
            return (0,) + element_key(e)
        except PreconditionError:
            return (1, str(e), repr(e))

    elements = tuple(sorted(elements, key=key))
    parent = {}
    for b in elements:
        below = [a for a in elements if a != b and leq(a, b)]
        tops = [p for p in below if all(leq(a, p) for a in below)]
        if below and not tops:
            raise PreconditionError(f"the elements below {b} are not a chain")
        parent[b] = tops[0] if tops else None
    return FinPoset(elements, parent)


def poset_leq(P: FinPoset, a, b) -> bool:
    """a <= b in the forest P: a lies on b's chain of parents."""
    return a in P.down(b)


def empty_presheaf(base: FinPoset) -> FinPresheaf:
    return FinPresheaf(base, (), {}, ())


def element_at(F: FinPresheaf, e, printed):
    """The element of F's stage at e that prints as ``printed``."""
    return next(x for x in F.stage(e) if F.elements[x] == printed)


@dataclass(frozen=True)
class PresheafReport:
    ok: bool
    violations: tuple


def validate(F: FinPresheaf) -> PresheafReport:
    """Check each element's parent: an element of a non-root stage has one,
    in the stage below.  Over a forest there is one cover path per pair, so
    sound parents are all the presheaf laws ask."""
    bad = []
    for hi, xs in F.stages.items():
        lo = F.base.parent[hi]
        if lo is None:
            continue
        lo_stage = set(F.stage(lo))
        for x in xs:
            if F.parent[x] is None:
                bad.append(("missing-restriction", lo, hi, F.elements[x]))
            elif F.parent[x] not in lo_stage:
                bad.append(("codomain", lo, hi, F.elements[x]))
    return PresheafReport(not bad, tuple(bad))


def sub_presheaf(F: FinPresheaf, generators) -> FinPresheaf:
    """Down-closure of the given (stage, element) generators inside F, with
    F's elements and parents: each stage keeps F's stage order."""
    kept = set()
    for (e, x) in generators:
        for lo in F.base.down(e):
            kept.add(F.restrict(x, e, lo))
    stages = {e: [x for x in xs if x in kept] for e, xs in F.stages.items()}
    return make_presheaf(F.base, stages, F.parent, F.elements)


def inclusion(sub: FinPresheaf, sup: FinPresheaf):
    return nat_trans(sub, sup, lambda e, x: x)


# ---------------------------------------------------------------------------
# Mono squares and the checked filler search


def naturality_violations(nt: NatTrans) -> list:
    bad = []
    F, G = nt.source, nt.target
    for e, xs in F.stages.items():
        tgt_stage = set(G.stage(e))
        for x in xs:
            if nt.at[x] not in tgt_stage:
                bad.append(("codomain", e, F.elements[x]))
    for hi, xs in F.stages.items():
        for lo in F.base.down(hi)[:-1]:
            for x in xs:
                left = nt.at[F.restrict(x, hi, lo)]
                right = G.restrict(nt.at[x], hi, lo)
                if left != right:
                    bad.append(("naturality", lo, hi, F.elements[x]))
    return bad


def is_mono(g: NatTrans) -> bool:
    """Stage-wise injectivity, which is the standard characterization of a
    mono in a presheaf category."""
    return all(len({g.at[x] for x in xs}) == len(xs) for xs in g.source.stages.values())


@dataclass(frozen=True)
class MonoSquare:
    """A commuting square over f: the mono g: P -> Q, with m: P -> F and
    n: Q -> G satisfying f.m = n.g."""

    g: NatTrans
    m: NatTrans
    n: NatTrans
    f: NatTrans
    family: str = "adhoc"
    about: tuple = ()


def _check_square(square: MonoSquare):
    g, m, n, f = square.g, square.m, square.n, square.f
    if g.source is not m.source and g.source != m.source:
        raise PreconditionError("square legs disagree on P")
    if g.target is not n.source and g.target != n.source:
        raise PreconditionError("square legs disagree on Q")
    if not is_mono(g):
        raise PreconditionError("g is not a mono")
    for e, ps in g.source.stages.items():
        for p in ps:
            if f.at[m.at[p]] != n.at[g.at[p]]:
                raise PreconditionError(f"square does not commute at {e}")


def find_filler(square: MonoSquare):
    """The library's backtracking search (``bisimap.presheaf.find_filler``)
    between two checks: the square's legs agree, g is mono and the square
    commutes (else ``PreconditionError``), and the filler found is natural
    and makes both triangles commute (else ``InternalCheckError``).  Returns
    the filler or None."""
    _check_square(square)
    k = presheaf.find_filler(square)
    if k is None:
        return None
    g, m, n, f = square.g, square.m, square.n, square.f
    if naturality_violations(k):
        raise InternalCheckError("filler search produced a non-natural map")
    for ps in g.source.stages.values():
        for p in ps:
            if k.at[g.at[p]] != m.at[p]:
                raise InternalCheckError("filler breaks the lower triangle")
    for qs in k.source.stages.values():
        for q in qs:
            if f.at[k.at[q]] != n.at[q]:
                raise InternalCheckError("filler breaks the upper triangle")
    return k


# ---------------------------------------------------------------------------
# The left Kan extension along a hiding map


@dataclass(frozen=True)
class MonotoneMap:
    source: FinPoset
    target: FinPoset
    mapping: dict

    def __post_init__(self):
        targets = set(self.target.elements)
        for a in self.source.elements:
            if self.mapping[a] not in targets:
                raise PreconditionError("map leaves the target poset")
        for b, a in self.source.parent.items():
            if a is not None and not poset_leq(self.target, self.mapping[a], self.mapping[b]):
                raise PreconditionError(f"map not order-preserving at ({a}, {b})")

    def __call__(self, e):
        return self.mapping[e]


def hiding_map(source: FinPoset, target: FinPoset) -> MonotoneMap:
    """The monotone map that deletes silent letters (and collapses stretch
    points onto the stretchable observation, when present)."""
    barred = any(e is TAU_BAR for e in target.elements)
    mapping = {e: hide(e, barred=barred) for e in source.elements}
    return MonotoneMap(source, target, mapping)


def identity_map(poset: FinPoset) -> MonotoneMap:
    return MonotoneMap(poset, poset, {e: e for e in poset.elements})


def _check_hiding_shape(h: MonotoneMap):
    if h.source == h.target and all(h.mapping[e] == e for e in h.source.elements):
        return
    for e in h.source.elements:
        if isinstance(e, Word):
            expected = e.visible()
        elif isinstance(e, StretchPoint):
            expected = TAU_BAR
        else:
            raise UnsupportedError(f"unsupported source element {e!r}")
        if h.mapping[e] != expected:
            raise UnsupportedError("only truncations of hiding maps are supported")


def left_kan(h: MonotoneMap, F: FinPresheaf) -> FinPresheaf:
    """The left Kan extension of F along a hiding-map truncation.

    The stage at rho is the colimit of F over the index {s : rho <= h(s)}.
    That index is an up-set of a forest, so each of its components is the
    up-set of one minimal element m (an element whose parent lies outside
    it), and the component's colimit is F's stage at m.  The stage is read
    off directly: the pairs (m, x) for x in F's stage at m, printed as
    (m, x printed).  The action restricts x to the first element of m's
    down-set with the requested image.
    """
    _check_hiding_shape(h)
    if F.base != h.source:
        raise PreconditionError("presheaf base and map source disagree")
    source = h.source

    def stage(rho):
        index = {s for s in source.elements if poset_leq(h.target, rho, h(s))}
        return _stage_sorted((m, F.elements[x]) for m in source.elements
                             if m in index and source.parent[m] not in index
                             for x in F.stage(m))

    def act(pair, frm, to):
        root, value = pair
        s = next(s for s in source.down(root) if h(s) == to)
        return (s, F.elements[F.restrict(element_at(F, root, value), root, s)])

    return make_presheaf(h.target, {rho: stage(rho) for rho in h.target.elements}, act)


# ---------------------------------------------------------------------------
# Category of elements


@dataclass(frozen=True)
class ElementsPosetResult:
    raw: FinPoset
    simplified: FinPoset
    simplify: dict


def elements_poset(F: FinPresheaf) -> ElementsPosetResult:
    """The poset of (stage index, element) pairs of a presheaf over a time
    poset, by pairwise comparison of restrictions, together with the
    canonical simplification that drops the index wherever the printed
    element alone already determines it."""
    if not all(isinstance(e, int) for e in F.base.elements):
        raise PreconditionError("category of elements is built over a time poset")
    objs = [(e, x) for e in F.base.elements for x in F.stage(e)]

    def leq(a, b):
        (ea, xa), (eb, xb) = a, b
        return poset_leq(F.base, ea, eb) and F.restrict(xb, eb, ea) == xa

    raw = poset_from_leq(objs, leq)

    occurrences = {}
    for (e, x) in objs:
        occurrences.setdefault(F.elements[x], set()).add(e)
    simplify = {}
    for (e, x) in objs:
        printed = F.elements[x]
        if len(occurrences[printed]) == 1:
            simplify[(e, x)] = printed
        elif printed is TAU_BAR:
            simplify[(e, x)] = StretchPoint(e)
        else:
            simplify[(e, x)] = (e, printed)
    simple_elems = list(simplify.values())
    if len(set(simple_elems)) != len(simple_elems):
        raise PreconditionError("simplification collapsed distinct objects")
    inverse = {v: k for k, v in simplify.items()}
    simplified = poset_from_leq(simple_elems, lambda a, b: leq(inverse[a], inverse[b]))
    return ElementsPosetResult(raw, simplified, simplify)


# ---------------------------------------------------------------------------
# Minimal executions: the library reads them off one walk of the execution
# tree (``semantics._minimal_presheaf``); these define them word by word


def minimal_trace_for(rho: Word, trace: Word) -> bool:
    """Is ``trace`` a minimal word for the visible word ``rho``: does it hide
    to rho with no proper prefix hiding to rho (no trailing silent letters)?"""
    if trace.visible() != rho:
        return False
    if len(rho) == 0:
        return len(trace) == 0
    return trace[-1] is not TAU


def mpast(p: Execution, rho2: Word) -> Execution:
    """Restrict to the unique minimal prefix whose visible trace is rho2."""
    for w in p.trace.prefixes():
        if w.visible() == rho2:
            return restrict(p, w)
    raise PreconditionError(f"{rho2} is not a visible prefix of {p.trace}")


def is_minimal_execution(p: Execution) -> bool:
    return minimal_trace_for(p.trace.visible(), p.trace)


def minimal_executions(lts: Lts, rho: Word, depth: int) -> frozenset:
    """All executions of trace length <= depth whose trace is minimal for rho."""
    if len(rho) > depth:
        raise PreconditionError("observable word longer than the depth")
    if TAU in rho:
        raise PreconditionError("observable words are silent-free")
    execs = executions_up_to(lts, depth)
    return frozenset(
        p for w, ps in execs.items() if minimal_trace_for(rho, w) for p in ps
    )


# ---------------------------------------------------------------------------
# Step by step: the library images each source step of a branching lift once
# (``semantics._step_images``) and carries each target element's
# preimage restrictions down the square stream (``StreamSquare.lifts``);
# these image an execution's steps and compose a square's restrictions one at
# a time


def map_pf(f: dict, p: Execution, target: Lts = None) -> Execution:
    """The image of an execution under a branching simulation: visible steps
    map through, silent steps map through or collapse when the images agree.

    With ``target`` given, every produced step is asserted to exist there; a
    failure indicates a bug in the simulation checker, not bad input.
    """
    states = [f[p.states[0]]]
    letters = []
    for lab, nxt in zip(p.trace, p.states[1:]):
        cur, img = states[-1], f[nxt]
        if lab is TAU and cur == img:
            continue
        if target is not None and not target.has_transition(cur, lab, img):
            raise InternalCheckError(
                f"image step {cur} -{lab}-> {img} missing in target"
            )
        letters.append(lab)
        states.append(img)
    return Execution(Word(letters), tuple(states))


def filler_by_restriction(square) -> bool:
    """The generator decision of a stream square by composing restrictions:
    a ``fiber`` square is filled when w has a preimage at e, any other when a
    preimage of w at e restricts to x at e2."""
    f = square.f
    if square.family == "fiber":
        e, w = square.about
        return bool(f.fiber(e, w))
    e, w, e2, x = square.about
    F = f.source
    return any(F.restrict(v, e, e2) == x for v in f.fiber(e, w))


# ---------------------------------------------------------------------------
# Silent closure: the library searches backwards once per target state for
# stutter witnesses (``semantics._first_stutter``) and once per target step
# for weak reflection (``equiv.check_branching_bisim_fn``); these walk the
# closure of every state


def eps_closure(lts: Lts) -> dict:
    """state -> states reachable by zero or more silent steps."""
    adj = adjacency(lts)
    closure = {}
    for s in lts.states:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for (lab, v) in adj[u]:
                if lab is TAU and v not in seen:
                    seen.add(v)
                    stack.append(v)
        closure[s] = frozenset(seen)
    return closure


def first_stutter(f: dict, source: Lts, target: Lts) -> Verdict:
    """``check_branching_sim`` where every target step exists, so that only
    stuttering can fail: its witness is the first (x1, x2, x3) in state
    order with silent runs from x1 to x2 and from x2 to x3 and
    f(x1) = f(x3) != f(x2)."""
    eps = eps_closure(source)
    reach = {x: [y for y in source.states if y in eps[x]] for x in source.states}
    for x1 in source.states:
        for x2 in reach[x1]:
            for x3 in reach[x2]:
                if f[x1] == f[x3] and f[x1] != f[x2]:
                    return Verdict("branching-sim", False, ("stutter", (x1, x2, x3)))
    return Verdict("branching-sim", True)


def weak_reflection_violation(f: dict, source: Lts, target: Lts) -> Verdict:
    """``check_branching_bisim_fn`` with weak reflection read forwards: after
    the library's branching simulation and onto checks, its witness is the
    first target step (f(x), a, y), for x in state order and then the steps
    of f(x) in adjacency order, that no x1 silently reachable from x with
    f(x1) = f(x) matches by an a-step into y's preimage."""
    w = branching_simulation_violation(f, source, target)
    if w is None and _unreached(f, source, target) is not None:
        w = ("not-surjective", _unreached(f, source, target))
    if w is not None:
        return Verdict("branching-bisim-fn", False, w)
    adjY, adjX = adjacency(target), adjacency(source)
    eps = eps_closure(source)
    for x in source.states:
        for (a, y) in adjY[f[x]]:
            if not any(f[x1] == f[x] and lab == a and f[x2] == y
                       for x1 in eps[x] for (lab, x2) in adjX[x1]):
                return Verdict("branching-bisim-fn", False, ("no-weak-reflection", (f[x], a, y)))
    return Verdict("branching-bisim-fn", True)


# ---------------------------------------------------------------------------
# Exact fairness transfer, one direction at a time: the library builds one
# product graph per check, ranks its nodes once and reads each condition on
# the states its product nodes project to (``equiv.exists_violating_run``);
# this engine lifts each condition to graph nodes first (``_lift_fairness``),
# builds a fresh product over explicit successor lists for each direction
# and sorts by ``_node_key`` in every component search


def _lift_fairness(spec, nodes, proj):
    """Reinterpret a state-level condition of an exact kind over graph nodes
    via a projection."""
    if isinstance(spec, StreettSpec):
        return StreettSpec(tuple(
            (
                frozenset(n for n in nodes if proj(n) in L),
                frozenset(n for n in nodes if proj(n) in U),
            )
            for (L, U) in spec.pairs
        ))
    return AlwaysAfterSpec(
        spec.offset,
        frozenset(n for n in nodes if proj(n) in spec.allowed),
        tuple(spec.gate),
    )


def _product_with_automata(starts, adj, fair_a, unfair_b):
    """The part of the graph reachable from ``starts``, run in step with the
    automata of the two conditions where they are positional: nodes are
    (graph node, state of fair_a's automaton, state of unfair_b's), with
    None for a condition without one, and steps that fail fair_a are cut.
    Returns the product's steps and its BFS tree (node -> (parent, label)),
    the tree in visit order."""
    a_aa = isinstance(fair_a, AlwaysAfterSpec)
    b_aa = isinstance(unfair_b, AlwaysAfterSpec)
    inits = []
    for v in sorted(starts, key=_node_key):
        sa = _aa_init(fair_a, v) if a_aa else None
        sb = _aa_init(unfair_b, v) if b_aa else None
        if sa != "fail":
            inits.append((v, sa, sb))
    prod_adj = {}
    parents = {}
    queue = list(inits)
    for st in inits:
        parents.setdefault(st, None)
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        v, sa, sb = u
        steps = []
        for (lab, v2) in adj.get(v, ()):
            sa2 = _aa_step(fair_a, sa, lab, v2) if a_aa else None
            if sa2 == "fail":
                continue
            sb2 = _aa_step(unfair_b, sb, lab, v2) if b_aa else None
            nxt = (v2, sa2, sb2)
            steps.append((lab, nxt))
            if nxt not in parents:
                parents[nxt] = (u, lab)
                queue.append(nxt)
        prod_adj[u] = tuple(steps)
    return prod_adj, parents


def _synchronised(adj1, adj2, nodes) -> dict:
    """The steps of the synchronous product of two labelled graphs on the
    given node pairs: (u, v) -a-> (u2, v2) when both graphs take an a-step
    and the pair is a node; steps in the order of adj1, then adj2."""
    node_set = set(nodes)
    return {
        (u, v): tuple(
            (a, (u2, v2))
            for (a, u2) in adj1[u]
            for (b, v2) in adj2[v]
            if a == b and (u2, v2) in node_set
        )
        for (u, v) in nodes
    }


def _sccs_by_key(nodes, adj):
    """Strongly connected components of the induced subgraph, Kosaraju-style,
    roots taken in ``_node_key`` order."""
    nodes = sorted(set(nodes), key=_node_key)
    inside = set(nodes)
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter([v for (_, v) in adj.get(root, ()) if v in inside]))]
        seen.add(root)
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v not in seen:
                    seen.add(v)
                    stack.append((v, iter([w for (_, w) in adj.get(v, ()) if w in inside])))
                    advanced = True
                    break
            if not advanced:
                order.append(u)
                stack.pop()
    rev = {}
    for u in nodes:
        for (_, v) in adj.get(u, ()):
            if v in inside:
                rev.setdefault(v, []).append(u)
    comps, assigned = [], set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp, stack = {root}, [root]
        assigned.add(root)
        while stack:
            for v in rev.get(stack.pop(), ()):
                if v not in assigned:
                    assigned.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def sccs_in_key_order(nodes, adj, rank):
    """``_sccs_by_key``, for a ``rank`` in ``_node_key`` order."""
    assert sorted(rank, key=rank.__getitem__) == sorted(rank, key=_node_key)
    return _sccs_by_key(nodes, adj)


def _streett_ec_by_key(span, adj, pairs, want):
    for comp in _sccs_by_key(span, adj):
        if not _nontrivial(comp, adj):
            continue
        bad = [(L, U) for (L, U) in pairs if (comp & L) and not (comp & U)]
        if bad:
            removed = set()
            for (L, _) in bad:
                removed |= L
            found = _streett_ec_by_key(comp - removed, adj, pairs, want)
            if found is not None:
                return found
        elif want(comp):
            return comp
    return None


def _pairs_on_product(spec, prod_nodes):
    if not isinstance(spec, StreettSpec):
        return ()
    return tuple((frozenset(p for p in prod_nodes if p[0] in L),
                  frozenset(p for p in prod_nodes if p[0] in U)) for (L, U) in spec.pairs)


def _lasso_by_key(comp, prod_adj, parents, via=None, span=None) -> Lasso:
    order = sorted(comp, key=_node_key)
    walk, cur = [], order[0]
    for tgt in order[1:] + [order[0]]:
        walk.extend(_bfs_path(cur, tgt, prod_adj, comp, require_step=False))
        cur = tgt
    if not walk:
        walk = _bfs_path(order[0], order[0], prod_adj, comp, require_step=True)
    start, steps = _steps_to(order[0] if via is None else via, parents)
    if via is not None:
        steps += _bfs_path(via, order[0], prod_adj, span, require_step=False)
    stem = Execution(Word(lab for (lab, _) in steps),
                     (start[0],) + tuple(p[0] for (_, p) in steps))
    return Lasso(stem, tuple((lab, p[0]) for (lab, p) in walk)).canonical()


def violating_run_per_direction(nodes, adj, fair_a, unfair_b):
    """``exists_violating_run`` with a fresh product and fresh lifts."""
    prod_adj, parents = _product_with_automata(nodes, adj, fair_a, unfair_b)
    prod_nodes = list(parents)
    a_pairs = _pairs_on_product(fair_a, prod_nodes)
    if isinstance(unfair_b, AlwaysAfterSpec):
        for t in sorted((p for p in prod_nodes if p[2] == "fail"), key=_node_key):
            span = reach([t], lambda u: [v for (_, v) in prod_adj[u]])
            comp = _streett_ec_by_key(span, prod_adj, a_pairs, lambda D: True)
            if comp is not None:
                return _lasso_by_key(comp, prod_adj, parents, via=t, span=span)
    else:
        for (L, U) in _pairs_on_product(unfair_b, prod_nodes):
            comp = _streett_ec_by_key(set(prod_nodes) - U, prod_adj, a_pairs, lambda D: bool(D & L))
            if comp is not None:
                return _lasso_by_key(comp, prod_adj, parents)
    return None


def _decide(check, mode, exact, exact_witness, bounded, stem_bound, cycle_bound) -> Verdict:
    """Exact or bounded, for the Streett and positional conditions only."""
    if mode == "exact_streett":
        w = exact()
        return Verdict(check, True) if w is None else Verdict(check, False, exact_witness(w))
    w = next(bounded(), None)
    if w is not None:
        return Verdict(check, False, w)
    return Verdict(check, True, certified_bounds={"stem_bound": stem_bound, "cycle_bound": cycle_bound})


def _transfer_per_direction(check, f, source, target, mode, stem_bound, cycle_bound, preserve):
    tag = "unfair-image" if preserve else "chain-with-fair-image-but-no-fair-limit"
    nodes = list(source.lts.states)
    own = _lift_fairness(source.fairness, nodes, lambda x: x)
    image = _lift_fairness(target.fairness, nodes, lambda x: f[x])
    fair_a, unfair_b = (own, image) if preserve else (image, own)
    return _decide(
        check, mode,
        lambda: violating_run_per_direction(nodes, adjacency(source.lts), fair_a, unfair_b),
        lambda w: (tag, (w, w.map_states(f).canonical())),
        lambda: ((tag, m) for m in fair_mismatches(
            f, target, fair_lassos(source, stem_bound, cycle_bound), preserve)),
        stem_bound, cycle_bound,
    )


def fair_bisim_fn_per_direction(f, source, target, mode, stem_bound=4, cycle_bound=4) -> Verdict:
    """``check_fair_bisim_fn`` by the per-direction engine."""
    ok, w = is_simulation(f, source.lts, target.lts)
    if not ok:
        return Verdict("fair-bisim-fn", False, ("transition", w))
    args = ("fair-bisim-fn", f, source, target, mode, stem_bound, cycle_bound)
    kept = _transfer_per_direction(*args, True)
    if not kept.holds:
        return kept
    w = _transfer_violation(f, source.lts, target.lts, adjacency(source.lts))
    return Verdict("fair-bisim-fn", False, w) if w is not None else _transfer_per_direction(*args, False)


def fair_sim_per_direction(f, source, target, stem_bound=4, cycle_bound=4) -> Verdict:
    """``check_fair_sim`` as the bounded preservation direction of the
    per-direction engine."""
    ok, w = is_simulation(f, source.lts, target.lts)
    if not ok:
        return Verdict("fair-sim", False, ("transition", w))
    return _transfer_per_direction("fair-sim", f, source, target, "bounded", stem_bound, cycle_bound, True)


def fair_reflection_per_direction(f, source, target, mode, stem_bound=4, cycle_bound=4) -> Verdict:
    """``check_fair_reflection`` by the per-direction engine."""
    args = ("fair-reflection", f, source, target, mode, stem_bound, cycle_bound)
    ok, w = is_simulation(f, source.lts, target.lts)
    w = _transfer_per_direction(*args, True).witness if ok else ("transition", w)
    if w is not None:
        raise PreconditionError("reflection is only defined for fair simulations: " + format_witness(w))
    return _transfer_per_direction(*args, False)


def forall_fair_bisim_per_direction(R, system, mode, stem_bound=4, cycle_bound=4) -> Verdict:
    """``check_forall_fair_bisim`` by the per-direction engine."""
    kind = R.kind
    if kind != "equivalence":
        return Verdict("forall-fair-bisim", False, ("not-equivalence", kind))
    adjX = adjacency(system.lts)
    for (x, y) in sorted(R.pairs):
        for (a, x2) in adjX[x]:
            if not any(b == a and R.contains(x2, y2) for (b, y2) in adjX[y]):
                return Verdict("forall-fair-bisim", False, ("no-transfer", ((x, y), (x, a, x2))))
    nodes = sorted(R.pairs)
    adj = _synchronised(adjX, adjX, nodes)
    tag = "fairness-not-transferred"

    def bounded():
        for lasso in enumerate_graph_lassos(nodes, adj, stem_bound, cycle_bound):
            left, right = _split_pair_lasso(lasso)
            if system.fairness.is_fair(left) and not system.fairness.is_fair(right):
                yield (tag, (left, right))

    return _decide(
        "forall-fair-bisim", mode,
        lambda: violating_run_per_direction(
            nodes, adj, _lift_fairness(system.fairness, nodes, lambda n: n[0]),
            _lift_fairness(system.fairness, nodes, lambda n: n[1])),
        lambda w: (tag, _split_pair_lasso(w)),
        bounded, stem_bound, cycle_bound,
    )


# ---------------------------------------------------------------------------
# Lifting lasso runs along a map, over node-level conditions: the library
# steps the source and the lasso's positions in one successor function and
# reads the source's condition on each node's state


def _lifted_fair_run(source: FairLts, adj, f: dict, lasso: Lasso, starts):
    """A fair run of the source (successor lists ``adj``), started at one of
    ``starts``, that f maps pointwise onto the lasso's run, or None.  Decided
    on the product of the source with the lasso's positions: stem positions,
    then the cycle's; a run violates the Streett pair (every node, no
    node) exactly when it is infinite."""
    k, n = len(lasso.stem.trace), len(lasso.cycle)
    positions = [("s", i) for i in range(k + 1)] + [("c", j) for j in range(n)]
    state_of = dict(zip(positions, lasso.stem.states + tuple(st for (_, st) in lasso.cycle)))
    steps = [(lab, ("s", i + 1)) for (i, lab) in enumerate(lasso.stem.trace)]
    steps.append((lasso.cycle[0][0], ("c", 0)))
    steps.extend((lasso.cycle[(j + 1) % n][0], ("c", (j + 1) % n)) for j in range(n))
    nodes = [
        (x, pos)
        for x in source.lts.states
        for pos in positions
        if f[x] == state_of[pos]
    ]
    if not isinstance(source.fairness, _EXACT_KINDS):
        raise UnsupportedError("source fairness kind unsupported for lifting runs")
    step = {pos: (s,) for (pos, s) in zip(positions, steps)}
    spec = _lift_fairness(source.fairness, nodes, lambda node: node[0])
    every_run = StreettSpec(((frozenset(nodes), frozenset()),))
    return violating_run_per_direction([(x, ("s", 0)) for x in starts], _synchronised(adj, step, nodes),
                                       spec, every_run)


def image_is_fair(source, f, lasso) -> bool:
    """``ImageFairness(source, f).is_fair(lasso)`` by ``_lifted_fair_run``."""
    starts = [x for x in source.lts.states if f[x] == lasso.stem.start]
    return _lifted_fair_run(source, adjacency(source.lts), f, lasso, starts) is not None


def hildebrandt_open_by_node_lifts(f, source, target, stem_bound=4, cycle_bound=4) -> Verdict:
    """``check_hildebrandt_open`` with ``_lifted_fair_run``."""
    w = fair_simulation_violation(f, source, target, stem_bound, cycle_bound)
    if w is not None:
        raise PreconditionError("only fair simulations are checked for openness: " + format_witness(w))
    adj = adjacency(source.lts)
    w = _reflection_violation(f, source.lts, target.lts, adj)
    if w is not None:
        return Verdict("hildebrandt-open", False, ("no-reflection", w))
    fair_targets = sorted((l for (l, ok) in fair_lassos(target, stem_bound, cycle_bound) if ok), key=str)
    for x in source.lts.states:
        for q in fair_targets:
            if q.stem.start == f[x] and _lifted_fair_run(source, adj, f, q, [x]) is None:
                return Verdict("hildebrandt-open", False, ("unliftable-fair-run", (x, q)))
    return Verdict("hildebrandt-open", True,
                   certified_bounds={"stem_bound": stem_bound, "cycle_bound": cycle_bound})


# ---------------------------------------------------------------------------
# Runs by enumeration: the library finds a run by end-component analysis
# (``equiv.exists_violating_run``) and enumerates lassos iteratively
# (``lts.enumerate_graph_lassos``); these enumerate runs and grow cycles by
# recursion


def same(node):
    """The identity projection of graph nodes onto states."""
    return node


def lasso_satisfies(lasso, spec) -> bool:
    """A state-level condition read off a lasso's positions directly."""
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


def violating_run_by_lassos(starts, steps, fair_a, unfair_b=None):
    """The first lasso from ``starts``, stems up to 4 steps and cycles up to
    6, that satisfies ``fair_a`` and violates ``unfair_b`` (when given), or
    None; the conditions are (spec, projection) pairs with the identity
    projection."""
    adj = {n: steps(n) for n in reach(starts, lambda n: [v for (_, v) in steps(n)])}
    return next((lasso for lasso in enumerate_graph_lassos(starts, adj, 4, 6)
                 if lasso_satisfies(lasso, fair_a[0])
                 and not (unfair_b and lasso_satisfies(lasso, unfair_b[0]))), None)


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


# ---------------------------------------------------------------------------
# Simulation and bisimilarity by search: the library screens a map's steps
# once (``lts.is_simulation``) and computes branching bisimilarity by
# signature refinement; these sort every failing step, and reach the same
# relation by a pair fixpoint and by backtracking


def least_failing_step(f: dict, source: Lts, target: Lts):
    """``is_simulation`` by sorting every source step whose image is no
    target step: by label, visible before silent, then source and target in
    ``state_key`` order.  Returns (True, None) or (False, the first)."""
    failing = sorted(
        ((label_key(a), state_key(x), state_key(y)), (x, a, y))
        for (x, a, y) in source.transitions if not target.has_transition(f[x], a, f[y]))
    return (True, None) if not failing else (False, failing[0][1])


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


# ---------------------------------------------------------------------------
# Fair checks by their bounded lasso search, and the forall-fair quotient
# from its parts: a bounded refutation names a genuine run, so the exact
# decision refutes whenever these do


def fair_bisim_fn_bounded(f, source, target):
    """``check_fair_bisim_fn`` in bounded mode, at bounds 3/3."""
    return check_fair_bisim_fn(f, source, target, "bounded", 3, 3)


def fair_reflection_bounded(f, source, target):
    """``check_fair_reflection`` in bounded mode, at bounds 3/3."""
    return check_fair_reflection(f, source, target, "bounded", 3, 3)


def forall_fair_bisim_bounded(R, system):
    """``check_forall_fair_bisim`` in bounded mode, at bounds 3/3."""
    return check_forall_fair_bisim(R, system, "bounded", 3, 3)


def forall_fair_quotient_by_parts(R, system):
    """``forall_fair_quotient`` as the per-direction check of R, then the
    quotient by R: (quotient system, map), or the same refusal.  Its lassos
    are judged by ``image_is_fair``."""
    verdict = forall_fair_bisim_per_direction(R, system, "exact_streett")
    if not verdict.holds:
        raise PreconditionError("not a fairness-respecting equivalence: " + format_witness(verdict.witness))
    return quotient_lts(system.lts, R)


# ---------------------------------------------------------------------------
# Presheaves as tables: the library stores a presheaf as its category of
# elements (ints, one parent array) and a natural transformation as one array
# (``FinPresheaf``, ``NatTrans``); these store stage dicts of the printed
# elements, one restriction table per cover and one component dict per
# stage, build the lifts from the same stage sources, and stream the squares
# over them


@dataclass(frozen=True)
class TablePresheaf:
    """Stage sets indexed by poset elements, with a restriction table
    ``res[hi]`` from hi to its parent for each non-root hi whose stage is
    nonempty.  ``stages`` holds the nonempty stages only, in base order;
    every other restriction is the composite of tables down the parent
    links."""

    base: FinPoset
    stages: dict
    res: dict

    def stage(self, e) -> tuple:
        return self.stages.get(e, ())

    def restrict(self, x, frm, to):
        parent = self.base.parent
        while frm != to:
            lo = parent.get(frm)
            if lo is None:
                raise PreconditionError(f"{to} is not below {frm}")
            x = self.res[frm][x]
            frm = lo
        return x


def table_presheaf(base: FinPoset, stages: dict, rule) -> TablePresheaf:
    """The nonempty stages in base order, and the rule asked once per cover
    edge and element, its value checked to lie in the lower stage."""
    kept = sorted(filter(stages.get, stages), key=base.elements.index)
    stages = {e: tuple(stages[e]) for e in kept}
    res = {}
    for hi, xs in stages.items():
        lo = base.parent[hi]
        if lo is not None:
            res[hi] = {x: rule(x, hi, lo) for x in xs}
            if not set(res[hi].values()) <= set(stages.get(lo, ())):
                raise PreconditionError(f"a restriction from {hi} to {lo} leaves its stage")
    return TablePresheaf(base, stages, res)


@dataclass(frozen=True)
class TableNatTrans:
    """Components ``comp[e][x]``, one dict per nonempty source stage."""

    source: TablePresheaf
    target: TablePresheaf
    comp: dict

    def at(self, e, x):
        return self.comp[e][x]

    def fiber(self, e, y) -> list:
        return [x for x, image in self.comp.get(e, {}).items() if image == y]


def table_nat_trans(source: TablePresheaf, target: TablePresheaf, component) -> TableNatTrans:
    return TableNatTrans(source, target,
                         {e: {x: component(e, x) for x in xs} for e, xs in source.stages.items()})


def tables(F: FinPresheaf) -> TablePresheaf:
    """A presheaf's table form, read off its elements and parents."""
    printed = F.elements
    return TablePresheaf(
        F.base, {e: tuple(printed[x] for x in xs) for e, xs in F.stages.items()},
        {hi: {printed[x]: printed[F.parent[x]] for x in xs}
         for hi, xs in F.stages.items() if F.base.parent[hi] is not None})


def table_map(nt: NatTrans) -> TableNatTrans:
    """A natural transformation's table form, read off its array."""
    src, tgt = nt.source.elements, nt.target.elements
    return TableNatTrans(tables(nt.source), tables(nt.target),
                         {e: {src[x]: tgt[nt.at[x]] for x in xs}
                          for e, xs in nt.source.stages.items()})


def _table_rule(x, frm, to):
    """The restriction rule of the execution presheaves, restated."""
    if isinstance(frm, LassoTrace):
        return x.unroll(len(to))
    if isinstance(frm, StretchPoint):
        return x if isinstance(to, StretchPoint) else restrict(x, EPSILON)
    return restrict(x, to)


def _table_executions(lts, base, depth, more=()) -> TablePresheaf:
    stages = {w: _stage_sorted(ps) for w, ps in executions_up_to(lts, depth).items()}
    stages.update(more)
    return table_presheaf(base, stages, _table_rule)


def _table_fair_stages(fl, bounds) -> dict:
    by_trace = {}
    for (lasso, ok) in fair_lassos(fl, *bounds):
        if ok:
            by_trace.setdefault(lasso.trace(), []).append(lasso)
    return {e: _stage_sorted(xs) for e, xs in by_trace.items()}


def _table_minimal(lts, base, depth) -> TablePresheaf:
    """The minimal executions of one tree walk, as ``_minimal_presheaf``
    deals them, restricted along anchor links held as executions."""
    stretch = TAU_BAR in base.parent
    tree = execution_tree(lts, depth)
    stages, anchor = {}, {}
    for (p, _, rho, up, _) in sorted(tree, key=lambda node: (node[1], repr(node[0]))):
        anchor[p] = tree[up][0]
        if stretch and not rho:
            stages.setdefault(TAU_BAR, []).append(p)
        if not p.trace or p.trace[-1] is not TAU:
            stages.setdefault(rho, []).append(p)
    return table_presheaf(base, stages, lambda x, frm, to: anchor[x])


def _pointwise_image(f, e, x):
    if isinstance(e, LassoTrace):
        return x.map_states(f).canonical()
    return Execution(x.trace, tuple(f[s] for s in x.states))


LIFT_KINDS = ("strong", "fair", "base", "base-barred", "branching", "branching-failed")
FAIR_BOUNDS = (2, 2)


def id_lift(kind, f, X, Y, depth):
    """The library's lift of f in one of ``LIFT_KINDS``; base presheaves,
    which the library does not lift, by ``nat_trans`` with the pointwise
    image."""
    if kind == "strong":
        return strong_sem_map(f, X, Y, depth)
    if kind == "fair":
        return fair_sem_map(f, X, Y, depth, *FAIR_BOUNDS)
    if kind.startswith("base"):
        barred = kind == "base-barred"
        return nat_trans(base_presheaf(X, depth, barred), base_presheaf(Y, depth, barred),
                         partial(_pointwise_image, f))
    return branching_sem_map(f, X, Y, depth, kind == "branching")


def table_lift(kind, f, X, Y, depth):
    """The same lift in table form, from the same stage sources."""
    if kind == "fair":
        more = [_table_fair_stages(Z, FAIR_BOUNDS) for Z in (X, Y)]
        base = fair_target_poset(sorted(X.lts.alphabet | Y.lts.alphabet), depth,
                                 more[0].keys() | more[1].keys())
        FX, FY = (_table_executions(Z.lts, base, depth, m.items()) for Z, m in zip((X, Y), more))
        return table_nat_trans(FX, FY, partial(_pointwise_image, f))
    labels = sorted(X.alphabet | Y.alphabet)
    if kind in ("strong", "base"):
        base = word_poset(labels + [TAU] * (kind == "base"), depth)
        return table_nat_trans(_table_executions(X, base, depth), _table_executions(Y, base, depth),
                               partial(_pointwise_image, f))
    if kind == "base-barred":
        base = barred_source_poset(labels + [TAU], depth)

        def barred(Z):
            silent = _stage_sorted(p for w, ps in executions_up_to(Z, depth).items()
                                   if not w.visible() for p in ps)
            return _table_executions(Z, base, depth,
                                     [(StretchPoint(n), silent) for n in range(1, depth + 1)])

        return table_nat_trans(barred(X), barred(Y), partial(_pointwise_image, f))
    base = branching_target_poset(labels, depth) if kind == "branching" else word_poset(labels, depth)
    return table_nat_trans(_table_minimal(X, base, depth), _table_minimal(Y, base, depth),
                           lambda e, p: map_pf(f, p))


def table_stream(f: TableNatTrans):
    """The square stream over tables: (text, decision) of each square, the
    preimages of each target element and their restrictions carried down
    its chain one table at a time."""
    F, G = f.source, f.target
    base = G.base
    for e, stage in G.stages.items():
        chain = base.down(e)[::-1]
        top_family = "chain-limit" if isinstance(e, LassoTrace) else "extension"
        for w in stage:
            preimages = f.fiber(e, w)
            yield f"fiber square [{e}, {w}]", bool(preimages)
            history, lifts = [w], [preimages]
            for hi in chain[:-1]:
                history.append(G.res[hi][history[-1]])
                lifts.append({F.res[hi][v] for v in lifts[-1]})
            for i in range(len(chain) - 1, 0, -1):
                e2 = chain[i]
                for x in f.fiber(e2, history[i]):
                    if (isinstance(e, Word) and isinstance(e2, Word)
                            and len(x.trace) > base.word_budget - (len(e) - len(e2))):
                        continue
                    family = top_family if i == 1 else "extension"
                    yield f"{family} square [{e}, {w}, {e2}, {x}]", x in lifts[i]


def same_tables(row, case):
    """The library's lift and its table form: equal stages, every composite
    restriction, every component, and the same square stream, square by
    square in text and decision."""
    got, want = row.entry(*case), row.oracle(*case)
    out = [case[0]]
    for F, T in ((got.source, want.source), (got.target, want.target)):
        assert tables(F).stages == T.stages, case
        for hi, xs in F.stages.items():
            for lo in F.base.down(hi)[:-1]:
                for x in xs:
                    printed = F.elements[x]
                    assert F.elements[F.restrict(x, hi, lo)] == T.restrict(printed, hi, lo)
                    out.append("restriction")
    for e, xs in got.source.stages.items():
        for x in xs:
            assert got.at[x] in got.target.stage(e), case
            assert got.target.elements[got.at[x]] == want.at(e, got.source.elements[x]), case
    stream = [(str(sq), sq.has_filler()) for sq in enumerate_mono_squares(got)]
    assert stream == list(table_stream(want)), case
    return out + [(case[0], text.split()[0], ok) for (text, ok) in stream]


# ---------------------------------------------------------------------------
# The square stream by generic search: the library decides each stream
# square at its generator (``StreamSquare.has_filler``); these build each
# full square and search it for a filler, and enumerate the stream and the
# old pair squares directly


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
        return MonoSquare(g=NatTrans(P0, Q, ()), m=NatTrans(P0, F, ()), n=n, f=f,
                          family=sq.family, about=sq.about)
    e2, x = sq.about[2:]
    P = sub_presheaf(F, [(e2, x)])
    at = [None] * len(P.elements)
    for lo, ps in P.stages.items():
        for p in ps:
            at[p] = G.restrict(w, e, lo)
    g = NatTrans(P, Q, at)
    return MonoSquare(g=g, m=inclusion(P, F), n=n, f=f, family=sq.family, about=sq.about)


def generic_bounded(f):
    """``is_bisim_map_bounded`` as a loop of generic filler searches."""
    for square in enumerate_mono_squares(f):
        if find_filler(build_square(square)) is None:
            return False, square
    return True, None


def reference_stream(f):
    """The (family, about) data of the stream, by direct enumeration: every
    generator and every proper lower stage."""
    F, G = f.source, f.target
    base = G.base
    budget = max((len(e) for e in base.elements if isinstance(e, Word)), default=0)
    gens = [(e, w) for e in sorted(base.elements, key=element_key) for w in G.stage(e)]
    out = []
    for (e, w) in gens:
        out.append(("fiber", (e, w)))
        below = sorted(base.down(e)[:-1], key=element_key)
        for e2 in below:
            for x in F.stage(e2):
                if f.at[x] != G.restrict(w, e, e2):
                    continue
                trace = getattr(F.elements[x], "trace", None)
                if (isinstance(e, Word) and isinstance(e2, Word) and trace is not None
                        and len(trace) + len(e) - len(e2) > budget):
                    continue
                limit = isinstance(e, LassoTrace) and e2 == below[-1]
                out.append(("chain-limit" if limit else "extension", (e, w, e2, x)))
    return out


def reference_pairs(f, stage_bound, support_bound):
    """The about data (e1, w1, e2, w2) of the old pair squares: two
    generators at incomparable stages whose down-sets together have at most
    ``support_bound`` elements, with at most ``stage_bound`` values in each
    stage of the Q they generate.  The stream has no such square: over the
    chain-shaped bases it runs on, one is filled once the stream's squares
    are."""
    G = f.target
    base = G.base
    gens = [(e, w) for e in sorted(base.elements, key=element_key) for w in G.stage(e)]
    out = []
    for i, (e1, w1) in enumerate(gens):
        for (e2, w2) in gens[i + 1:]:
            if poset_leq(base, e1, e2) or poset_leq(base, e2, e1):
                continue
            support = set(base.down(e1)) | set(base.down(e2))
            if len(support) > support_bound:
                continue
            sizes = [
                len({G.restrict(w, e, s) for (e, w) in ((e1, w1), (e2, w2)) if poset_leq(base, s, e)})
                for s in support
            ]
            if max(sizes) <= stage_bound:
                out.append((e1, w1, e2, w2))
    return out


def pair_square(f, about) -> MonoSquare:
    """The pair square: Q generated by two target elements, P empty."""
    e1, w1, e2, w2 = about
    G = f.target
    Q = sub_presheaf(G, [(e1, w1), (e2, w2)])
    P0 = empty_presheaf(G.base)
    return MonoSquare(g=NatTrans(P0, Q, ()), m=NatTrans(P0, f.source, ()),
                      n=inclusion(Q, G), f=f, family="pair", about=about)


# ---------------------------------------------------------------------------
# The table.  A row holds a library entry point, its slow form, the seeded
# cases they are compared on (drawn from the families of ``conftest.py``),
# the seed, the count, the comparison and the least count of each outcome,
# so that no row passes vacuously.  A comparison calls both on a case,
# asserts that they agree and names the outcomes it saw.


@dataclass(frozen=True)
class Row:
    name: str
    entry: object
    oracle: object
    cases: object  # rng -> iterator of cases
    seed: int
    count: int
    compare: object  # (row, case) -> outcome names
    floors: dict  # outcome name -> least count


class Refused(str):
    """The text of a ``PreconditionError``, as an outcome."""


def outcome(fn, *args):
    try:
        result = fn(*args)
    except PreconditionError as exc:
        return Refused(exc)
    return list(result) if isinstance(result, GeneratorType) else result


def label(result):
    """``refused``; ``holds``, a failing verdict's witness tag or ``fails``;
    ``merges`` or ``discrete`` for an equivalence; ``found`` or ``none``."""
    if isinstance(result, Refused):
        return "refused"
    if isinstance(result, Verdict):
        w = result.witness
        if result.holds:
            return "holds"
        return w[0] if isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], str) else "fails"
    if isinstance(result, PartitionRelation):
        return "merges" if len(result.blocks()) < len(result.universe) else "discrete"
    return "none" if result is None or result == [] else "found"


def _text(result):
    return format_witness(result.witness) if isinstance(result, Verdict) and result.witness else None


def both(row, case):
    """Equal results (verdicts, refusals or values), and equal witness text."""
    got, want = outcome(row.entry, *case), outcome(row.oracle, *case)
    assert (got, _text(got)) == (want, _text(want)), (row.name, case)
    return [label(got)]


def both_by_mode(row, case):
    """``both``, each outcome named with the case's mode (its third-last
    argument, before the two lasso bounds)."""
    return [(case[-3], name) for name in both(row, case)]


def same_components(row, case):
    """``both`` on the component lists, order included; a case is named
    ``several`` with more than one nontrivial component, ``self-loop`` with
    a one-node component that steps to itself, ``long`` with more than 1,000
    components."""
    both(row, case)
    _, adj, _ = case
    comps = row.entry(*case)
    looped = [comp for comp in comps if _nontrivial(comp, adj)]
    return (["several"] * (len(looped) > 1) + ["self-loop"] * any(len(c) == 1 for c in looped)
            + ["long"] * (len(comps) > 1000))


def same_run(row, case):
    """A run exactly when the enumeration finds one, from one of the starts,
    satisfying the first condition and violating the second."""
    got, want = row.entry(*case), row.oracle(*case)
    assert (got is None) == (want is None), (row.name, case)
    if got is not None:
        (fair, _), *unfair = case[2:]
        assert got.stem.start in case[0] and lasso_satisfies(got, fair), (row.name, case)
        assert not any(lasso_satisfies(got, spec) for (spec, _) in unfair), (row.name, case)
    return [label(got)]


def same_steps(row, case):
    got = row.entry(*case)
    assert got == row.oracle(*case), (row.name, case)
    mixed = len({type(x) for x in case[1].states}) > 1
    return ["holds" if got[0] else "fails"] + ["mixed types"] * mixed


def same_kernel(row, case):
    """The quotient map's kernel is the oracle's relation, and no silent
    step stays inside a block."""
    quotient, f = row.entry(*case)
    kernel = PartitionRelation.kernel_of(f, case[0].states)
    assert kernel == row.oracle(*case), (row.name, case)
    assert not any(a is TAU and x == y for (x, a, y) in quotient.transitions), (row.name, case)
    return [label(kernel)]


def accepts_oracle_quotient(row, case):
    """The entry accepts the map onto the quotient by the oracle's relation."""
    R = row.oracle(*case)
    quotient, f = quotient_lts(case[0], R)
    assert R.kind == "equivalence" and row.entry(f, case[0], quotient).holds, (row.name, case)
    return ["holds"]


def refutes_whenever(row, case):
    """The exact entry refutes or refuses whenever its bounded search does,
    and a fair check's exact witness holds of the map."""
    exact, bounded = outcome(row.entry, *case), outcome(row.oracle, *case)
    if label(bounded) == "refused":
        assert label(exact) == "refused", (row.name, case)
    elif not bounded.holds:
        assert label(exact) not in ("holds", "not-equivalence"), (row.name, case)
    if isinstance(case[0], dict) and label(exact) not in ("holds", "refused"):
        assert_fair_witness(*case, exact.witness)
    return [label(bounded)]


def assert_fair_witness(f, X, Y, witness):
    """Re-evaluate a fair check's witness against the condition it names."""
    tag, w = witness
    if tag == "transition":
        (x, a, x2) = w
        assert X.lts.has_transition(x, a, x2) and not Y.lts.has_transition(f[x], a, f[x2])
    elif tag in ("unfair-image", "chain-with-fair-image-but-no-fair-limit"):
        lasso, image = w
        assert is_lasso_of(X.lts, lasso)
        assert image == lasso.map_states(f).canonical()
        fair = tag == "unfair-image"
        assert X.fairness.is_fair(lasso) == fair and Y.fairness.is_fair(image) != fair
    else:
        assert tag in ("not-surjective", "no-reflection")


def same_image_fairness(row, case):
    """Equal image fairness on every lasso, named by the source's kind of
    fairness."""
    fairness, lassos = case
    kind = type(fairness.source.fairness).__name__
    f = dict(fairness.mapping_items)
    got = [row.entry(fairness, lasso) for lasso in lassos]
    assert got == [row.oracle(fairness.source, f, lasso) for lasso in lassos], (row.name, case)
    return [(kind, fair) for fair in got]


def same_quotient(row, case):
    """The same quotient system and map, or the same refusal; each quotient
    lasso fair exactly when some fair source run maps onto it."""
    got, want = outcome(row.entry, *case), outcome(row.oracle, *case)
    if isinstance(want, Refused):
        assert got == want, (row.name, case)
        return ["refused"]
    (quotient, f), (lts, g) = got, want
    assert (quotient.lts, f) == (lts, g), (row.name, case)
    for lasso in enumerate_graph_lassos(lts.states, adjacency(lts), 2, 3):
        assert quotient.fairness.is_fair(lasso) == image_is_fair(case[1], f, lasso), (case, lasso)
    return ["holds"]


def strong_map_by_full_stream(f, X, Y, depth):
    """The strong map decided over the whole stream of its lift at depth."""
    return is_bisim_map_bounded(strong_sem_map(f, X, Y, depth))


def strong_map_at_depth(row, case):
    """``check_bisim_map`` in strong mode decides at depth 1; the full stream
    at the case's depth and the concrete check agree with it."""
    f, X, Y, depth = case
    ok, square = row.oracle(*case)
    verdict = row.entry(f, X, Y, "strong", depth=depth).presheaf_verdict
    assert verdict.holds == ok == check_strong_bisim_fn(f, X, Y).holds, (row.name, case)
    if ok:
        assert verdict.certified_bounds == {"depth": depth}
    else:
        assert _text(verdict) == format_witness(square), (row.name, case)
    return [label(verdict)]


def branching_map_soundness(row, case):
    """On branching simulations the filler route at depth 4 accepts only
    what the concrete route accepts.  (Not conversely: a padded anchor near
    the depth can make it refuse what the concrete route accepts.)"""
    f, X, Y = case
    if outcome(branching_simulation_violation, f, X, Y) is not None:
        return ["no branching simulation"]
    concrete = row.oracle(f, X, Y).holds
    accepted = row.entry(f, X, Y, "branching", depth=4).presheaf_verdict.holds
    assert concrete or not accepted, (row.name, case)
    return ["simulation"] + ["accepted"] * accepted + ["refused concretely"] * (not concrete)


def minimal_stages(row, case):
    """Each branching stage at a visible word holds its minimal executions,
    restricted by ``mpast``; the stretch stage holds the silent executions,
    restricted to their start."""
    X, depth = case
    checked = []
    for with_stretch in (True, False):
        B = tables(row.entry(X, depth, with_stretch))
        assert (TAU_BAR in B.base.elements) == with_stretch
        for e in B.base.elements:
            if e is TAU_BAR:
                silent = {p for ps in executions_up_to(X, depth).values()
                          for p in ps if not p.trace.visible()}
                assert set(B.stage(e)) == silent, case
                assert all(B.restrict(p, e, EPSILON) == Execution.empty(p.start) for p in B.stage(e))
                continue
            assert set(B.stage(e)) == row.oracle(X, e, depth), (case, e)
            for p in B.stage(e) if e else ():
                assert B.restrict(p, e, Word(e[:-1])) == mpast(p, Word(e[:-1])), (case, e)
                checked.append("mpast")
    return checked


def natural_stutter_lifts(row, case):
    """A map that keeps every step but stutters lifts, at depths 1-3 with
    and without the stretch stage, to a natural transformation."""
    f, X, Y = case
    violation = branching_simulation_violation(f, X, Y)
    if violation is None:
        return ["simulation"]
    assert violation[0] == "stutter", (row.name, case)
    for depth in (1, 2, 3):
        for with_stretch in (True, False):
            assert row.oracle(row.entry(f, X, Y, depth, with_stretch)) == [], (case, depth)
    return ["stutter"]


def same_square_decisions(row, case):
    """The stream is its direct enumeration, each square's generator
    decision is the generic search's, the verdict and witness are the
    generic loop's, and no pair square, at either of its old bounds,
    refutes a map the stream accepts or comes before its witness."""
    (lifted,) = case
    stream = list(enumerate_mono_squares(lifted))
    assert [(sq.family, sq.about) for sq in stream] == reference_stream(lifted)
    out, first_failure = [], None
    for square in stream:
        fast = square.has_filler()
        assert fast == (find_filler(build_square(square)) is not None), (square.family, square.about)
        out.append((square.family, fast))
        if not fast and first_failure is None:
            first_failure = (square.family, square.about)
    (ok, witness), (ok_ref, witness_ref) = row.entry(lifted), row.oracle(lifted)
    assert ok == ok_ref
    out.append("holds" if ok else "fails")
    if ok:
        assert witness is None
    else:
        assert isinstance(witness, StreamSquare)
        assert (witness.family, witness.about) == (witness_ref.family, witness_ref.about)
        assert build_square(witness) == build_square(witness_ref)
        assert str(witness) == str(witness_ref)
        assert find_filler(build_square(witness)) is None
    for bounds in ((2, 6), (1, 4)):
        old_first = first_failure  # the old stream: this stream, then the pair squares
        for about in reference_pairs(lifted, *bounds):
            if find_filler(pair_square(lifted, about)) is None:
                assert not ok, ("accepted, but a pair square has no filler", about)
                old_first = old_first or ("pair", about)
                if lifted.fiber(*about[:2]) and lifted.fiber(*about[2:]):
                    out.append("both generators lift")
        assert old_first == (None if ok else (witness.family, witness.about))
    return out


def carried_data(row, case):
    """Each stream square's carried preimage restrictions decide it as
    composed restrictions do, and each lifted component is the step-by-step
    image of its execution."""
    f, _, Y, lifted = case
    out = []
    for square in enumerate_mono_squares(lifted):
        decided = row.entry(square)
        assert decided == row.oracle(square), (row.name, str(square))
        out.append((square.family, decided))
    for e, table in table_map(lifted).comp.items():
        for p, image in table.items():
            assert image == map_pf(f, p, Y), (e, str(p))
            out += ["collapsed image"] * (len(image.trace) < len(p.trace))
    steps = (step for stage in tables(lifted.source).stages.values() for p in stage
             for step in zip(p.states, p.trace, p.states[1:]))
    return out + ["runs a silent loop"] * any(lab is TAU and a == b for (a, lab, b) in steps)


def step_images(row, case):
    """Each component of the branching lift is the step-by-step image of its
    execution, and lies in its target stage."""
    f, X, Y, quotient, with_stretch, depth = case
    lifted = row.entry(f, X, Y, depth, with_stretch)
    out = ["quotient" if quotient else "random", "stretch" if with_stretch else "plain"]
    out += [("depth", depth)] * bool(lifted.source.stages)
    out += ["silent loop"] * any(lab is TAU and a == b for (a, lab, b) in X.transitions)
    F, G = lifted.source, lifted.target
    for e, xs in F.stages.items():
        for x in xs:
            p, image = F.elements[x], G.elements[lifted.at[x]]
            assert image == row.oracle(f, p, Y) and lifted.at[x] in G.stage(e), (e, str(p))
            out += ["collapsed" if f[a] == f[b] else "kept"
                    for (a, lab, b) in zip(p.states, p.trace, p.states[1:]) if lab is TAU]
    return out


# Cases: each row's own, drawing from the families of ``conftest.py``


def violating_run_cases(rng):
    while True:
        X = random_fair_system(rng, ("a", "b"))
        B = random_fairness(rng, X.lts, ("a", "b"))
        yield (X.lts.states, adjacency(X.lts).__getitem__, (X.fairness, same), (B, same))


def fair_run_cases(rng):
    while True:
        X = random_fair_system(rng, ("a", "b"))
        starts = [x for x in X.lts.states if rng.random() < 0.7]
        yield (starts, adjacency(X.lts).__getitem__, (X.fairness, same))


def graph_lasso_cases(rng):
    while True:
        lts = random_lts(rng, 4, ("a", "b"), density=rng.choice([1.0, 1.8, 2.5]))
        yield (lts.states, adjacency(lts), rng.randint(0, 3), rng.randint(1, 4))


def component_cases(rng):
    """(nodes, adj, rank): a 20,000-node chain, then random graphs of up to
    14 nodes, some without an entry in adj and some with self-loops, each
    searched on all its nodes or an induced subset, listed shuffled; rank
    orders every node by ``_node_key``."""
    n = 20_000
    yield range(n), {i: (("a", i + 1),) for i in range(n - 1)}, _key_rank(range(n))
    while True:
        n = rng.randint(1, 14)
        adj = {u: tuple(("a", rng.randrange(n)) for _ in range(rng.randint(0, 3)))
                  + (("b", u),) * (rng.random() < 0.2)
               for u in range(n) if rng.random() < 0.9}
        nodes = [u for u in range(n) if rng.random() < 0.75] if rng.random() < 0.5 else list(range(n))
        rng.shuffle(nodes)
        yield nodes, adj, _key_rank(range(n))


def _key_rank(nodes):
    return {u: i for (i, u) in enumerate(sorted(nodes, key=_node_key))}


def _fair_maps(rng):
    """(X, Y, f): fair systems X, over {a, b} and {a} in turn, each with a
    map f onto the image system of a block map, with random fairness, half
    the time, else into another fair system."""
    for i in count():
        labels = ("a",) if i % 2 else ("a", "b")
        X = random_fair_system(rng, labels)
        if rng.random() < 0.5:
            f = block_map(rng, X.lts.states, "t")
            image = image_system(X.lts, f)
            Y = FairLts(image, random_fairness(rng, image, labels))
        else:
            Y = random_fair_system(rng, labels)
            f = random_total_map(rng, X.lts, Y.lts)
        yield X, Y, f


MODES = ("exact_streett", "bounded")


def _fair_maps_in_modes(rng):
    """Each map of ``_fair_maps`` in both modes, and the kernel R of a map
    of X into two blocks, for ``forall_fair_modes``."""
    for X, Y, f in _fair_maps(rng):
        R = PartitionRelation.kernel_of(block_map(rng, X.lts.states, most=2), X.lts.states)
        yield from ((f, X, Y, R, mode) for mode in MODES)


def fair_check_modes(rng):
    return ((f, X, Y, mode, 2, 3) for (f, X, Y, _, mode) in _fair_maps_in_modes(rng))


def forall_fair_modes(rng):
    return ((R, X, mode, 2, 3) for (_, X, _, R, mode) in _fair_maps_in_modes(rng))


def fair_map_cases(rng):
    return ((f, X, Y, 2, 3) for (X, Y, f) in _fair_maps(rng))


def image_fairness_cases(rng):
    return ((ImageFairness(X, tuple(sorted(f.items()))),
             tuple(enumerate_graph_lassos(Y.lts.states, adjacency(Y.lts), 2, 3)))
            for (X, Y, f) in _fair_maps(rng))


def fair_relation_cases(rng, labels=("a", "b"), **family):
    while True:
        X = random_fair_system(rng, labels, **family)
        yield (PartitionRelation.kernel_of(block_map(rng, X.lts.states), X.lts.states), X)


def streett_relation_cases(rng):
    return fair_relation_cases(rng, ("a",), max_states=4, streett_only=True)


def fair_pair_cases(rng):
    while True:
        labels = rng.choice([("a",), ("a", "b")])
        X, Y = random_fair_system(rng, labels), random_fair_system(rng, labels)
        yield (random_total_map(rng, X.lts, Y.lts), X, Y)


def relation_cases(rng):
    """The a-steps of systems of up to 7 states, as relations, some empty."""
    while True:
        X = random_lts(rng, 7, ("a", "b"), density=rng.uniform(0.0, 2.0))
        yield (PartitionRelation(X.states, frozenset((x, y) for (x, a, y) in X.transitions if a == "a")),)


def refinement_cases(rng):
    for i in count():
        tau_prob = (0.2, 0.5, 0.8)[i % 3]
        yield (random_lts(rng, 8, ("a", "b"), tau_prob=tau_prob, density=rng.uniform(0.5, 2.5)),)


def brute_force_cases(rng):
    while True:
        yield (random_lts(rng, 5, ("a",), tau_prob=0.4, density=1.5),)


def strong_quotient_cases(rng):
    while True:
        yield (random_lts(rng, 5, ("a", "b"), density=1.5),)


def mixed_simulation_cases(rng):
    """Maps between systems whose states are ints and strings: onto the
    image system of a block map, or into another random system."""
    while True:
        X = mixed_states(rng, random_lts(rng, 4, ("a", "b"), tau_prob=0.2, density=1.5))
        if rng.random() < 0.3:
            f = block_map(rng, X.states)
            yield (f, X, image_system(X, f))
        else:
            Y = mixed_states(rng, random_lts(rng, 3, ("a", "b"), tau_prob=0.2, density=1.5))
            yield (random_total_map(rng, X, Y), X, Y)


def stutter_cases(rng):
    """Mostly silent systems in a shuffled state order, so that the witness
    follows the order, not the names, into complete systems."""
    for i in count():
        X = random_lts(rng, 3 + i % 6, ("a",), tau_prob=0.7, density=1.0 + (i % 4) / 2)
        X = Lts.make(rng.sample(X.states, len(X.states)), X.alphabet, X.transitions)
        Y = complete_system([f"y{j}" for j in range(1 + i % 3)], ("a",))
        yield (random_total_map(rng, X, Y), X, Y)


def image_map_cases(rng):
    """Silent-step systems in a shuffled state order, a block map of each and
    its image system plus up to two random steps, which may go unreflected."""
    while True:
        X = random_lts(rng, 6, ("a", "b"), tau_prob=0.4, density=1.6)
        X = Lts.make(rng.sample(X.states, len(X.states)), X.alphabet, X.transitions)
        f = block_map(rng, X.states, "y")
        Y = image_system(X, f)
        extra = {(rng.choice(Y.states), rng.choice(("a", "b", TAU)), rng.choice(Y.states))
                 for _ in range(rng.randint(0, 2))}
        yield (f, X, Lts.make(Y.states, Y.alphabet, Y.transitions | extra))


def _strong_maps(rng, max_states=3, quotient=0.3, into_self=0.5, density=1.4):
    """Simulations between silent-step-free systems: onto the quotient by a
    block map (with chance ``quotient``), or among four random maps into the
    system itself (``into_self``) or into another."""
    while True:
        X = random_lts(rng, max_states, ("a", "b"), density=1.4)
        if rng.random() < quotient:
            Y, f = quotient_lts(X, PartitionRelation.kernel_of(block_map(rng, X.states), X.states))
            maps = [f]
        else:
            itself = into_self and rng.random() < into_self
            Y = X if itself else random_lts(rng, max_states, ("a", "b"), density=density)
            maps = [random_total_map(rng, X, Y) for _ in range(4)]
        yield from ((f, X, Y) for f in maps if is_simulation(f, X, Y)[0])


def strong_depth_cases(rng):
    return ((f, X, Y, depth) for (f, X, Y) in _strong_maps(rng, 4, 0.5, 0, 1.8)
            for depth in range(1, 6))


def branching_candidates(rng):
    """Silent-step systems with their branching quotient map, and in turn
    with six random maps into another system."""
    for i in count():
        X = random_lts(rng, 4, ("a", "b"), tau_prob=0.35, density=1.5)
        if i % 2 == 0:
            Y, f = branching_quotient(X)
            yield (f, X, Y)
        else:
            Y = random_lts(rng, 4, ("a", "b"), tau_prob=0.35, density=1.5)
            yield from [(random_total_map(rng, X, Y), X, Y) for _ in range(6)]


def _branching_maps(rng, silent_loops=False):
    """(f, X, Y, quotient, with_stretch) for branching simulations: onto a
    branching quotient (``quotient``, 40%) or among four random maps; with
    ``silent_loops`` the systems gain silent self-loops."""

    def draw():
        X = random_lts(rng, 3, ("a", "b"), tau_prob=0.35, density=1.5)
        loops = {(s, TAU, s) for s in X.states if rng.random() < 0.3} if silent_loops else set()
        return Lts(X.states, X.alphabet, X.transitions | loops)

    while True:
        X = draw()
        quotient = rng.random() < 0.4
        if quotient:
            Y, f = branching_quotient(X)
            maps = [f]
        else:
            Y = draw()
            maps = [random_total_map(rng, X, Y) for _ in range(4)]
        for f in maps:
            if outcome(branching_simulation_violation, f, X, Y) is None:
                yield f, X, Y, quotient, rng.random() < 0.7


def minimal_execution_cases(rng):
    for i in count():
        yield (random_lts(rng, 4, ("a", "b"), tau_prob=0.5, density=1.2 + i % 3 / 2), i % 5)


def stuttering_image_cases(rng):
    """Maps onto three states that keep every step but may stutter."""
    while True:
        X = random_lts(rng, 4, ("a", "b"), tau_prob=0.5, density=2.0)
        f = {s: rng.choice("uvw") for s in X.states}
        yield (f, X, image_system(X, f))


def step_image_grid(rng):
    """Twenty branching maps at each depth 0-5, without and then with silent
    self-loops."""
    for depth in range(6):
        for silent_loops in (False, True):
            yield from (case + (depth,) for case in islice(_branching_maps(rng, silent_loops), 20))


def strong_lifts(rng):
    return ((strong_sem_map(f, X, Y, 3),) for (f, X, Y) in _strong_maps(rng))


def branching_lifts(rng):
    return ((branching_sem_map(f, X, Y, 3, stretch),) for (f, X, Y, _, stretch) in _branching_maps(rng))


def _fair_simulations(rng):
    """Fair simulations between Streett systems, within lasso bounds 2/2."""
    while True:
        X = random_fair_system(rng, ("a", "b"), streett_only=True)
        Y = X if rng.random() < 0.3 else random_fair_system(rng, ("a", "b"), 2, streett_only=True)
        for f in [random_total_map(rng, X.lts, Y.lts) for _ in range(4)]:
            if outcome(fair_simulation_violation, f, X, Y, 2, 2) is None:
                yield (f, X, Y)


def fair_lifts(rng):
    """Fair simulations between Streett systems, lifted at depth 3."""
    return ((fair_sem_map(f, X, Y, 3, 2, 2),) for (f, X, Y) in _fair_simulations(rng))


def _strong_images(rng):
    """Silent-step systems mapped into at most two blocks, onto the images
    of their steps, silent ones included: a simulation in the strong sense,
    which base presheaves lift pointwise."""
    while True:
        X = random_lts(rng, 3, ("a", "b"), tau_prob=0.35, density=1.5)
        f = block_map(rng, X.states, most=2)
        steps = {(f[x], a, f[y]) for (x, a, y) in X.transitions}
        yield f, X, Lts.make(sorted(set(f.values())), X.alphabet, steps)


def lift_cases(rng):
    """A map in each kind of ``LIFT_KINDS`` in turn, at depths 1-3."""
    draws = {"strong": _strong_maps(rng), "fair": _fair_simulations(rng),
             "base": _strong_images(rng), "branching": _branching_maps(rng)}
    for i in count():
        kind = LIFT_KINDS[i % len(LIFT_KINDS)]
        f, X, Y = next(draws[kind.split("-")[0]])[:3]
        yield (kind, f, X, Y, 1 + i // len(LIFT_KINDS) % 3)


def carried_branching_lifts(rng):
    """Branching maps between systems with silent self-loops, at depth 4."""
    return ((f, X, Y, branching_sem_map(f, X, Y, 4, stretch))
            for (f, X, Y, _, stretch) in _branching_maps(rng, silent_loops=True))


def carried_strong_lifts(rng):
    return ((f, X, Y, strong_sem_map(f, X, Y, 4)) for (f, X, Y) in _strong_maps(rng))


def _each_family(*families):
    """Floors: each square family both filled and unfilled at least once."""
    return {(family, ok): 1 for family in families for ok in (True, False)}


ORACLES = (
    # the end-component engine and lasso enumeration, against enumerations
    Row("violating-run", exists_violating_run, violating_run_by_lassos, violating_run_cases,
        505, 150, same_run, {"found": 25, "none": 45}),
    Row("fair-run", exists_fair_run, violating_run_by_lassos, fair_run_cases,
        606, 150, same_run, {"found": 50, "none": 25}),
    Row("components", _sccs, sccs_in_key_order, component_cases,
        1972, 1500, same_components, {"several": 700, "self-loop": 900, "long": 1}),
    Row("graph-lassos", enumerate_graph_lassos, enumerate_graph_lassos_recursive, graph_lasso_cases,
        341, 300, both, {"found": 140, "none": 9}),
    # one product per fair check, against a fresh product per direction
    Row("fair-bisim-fn", check_fair_bisim_fn, fair_bisim_fn_per_direction, fair_check_modes,
        2121, 1000, both_by_mode, {(mode, "unfair-image"): 1 for mode in MODES}),
    Row("fair-reflection", check_fair_reflection, fair_reflection_per_direction, fair_check_modes,
        2121, 1000, both_by_mode,
        {(mode, "chain-with-fair-image-but-no-fair-limit"): 1 for mode in MODES}),
    Row("forall-fair-bisim", check_forall_fair_bisim, forall_fair_bisim_per_direction,
        forall_fair_modes, 2121, 1000, both_by_mode,
        {(mode, "fairness-not-transferred"): 1 for mode in MODES}),
    Row("fair-sim", check_fair_sim, fair_sim_per_direction, fair_map_cases,
        2424, 300, both, {"holds": 31, "transition": 31, "unfair-image": 31}),
    # lifted runs, against node-level lifts
    Row("image-fairness", ImageFairness.is_fair, image_is_fair, image_fairness_cases,
        2323, 320, same_image_fairness,
        {(kind, ok): 1 for kind in ("StreettSpec", "AlwaysAfterSpec") for ok in (True, False)}),
    Row("hildebrandt-open", check_hildebrandt_open, hildebrandt_open_by_node_lifts, fair_map_cases,
        2323, 320, both, dict.fromkeys(("refused", "holds", "no-reflection", "unliftable-fair-run"), 1)),
    Row("forall-fair-quotient", forall_fair_quotient, forall_fair_quotient_by_parts,
        fair_relation_cases, 3232, 100, same_quotient, {"holds": 25, "refused": 22}),
    # exact decisions, against their bounded lasso searches
    Row("forall-fair-bisim-bounded", check_forall_fair_bisim, forall_fair_bisim_bounded,
        streett_relation_cases, 1331, 60, refutes_whenever,
        {"holds": 15, "no-transfer": 12, "fairness-not-transferred": 1}),
    Row("fair-bisim-fn-bounded", check_fair_bisim_fn, fair_bisim_fn_bounded, fair_pair_cases,
        2019, 400, refutes_whenever,
        {"holds": 13, "unfair-image": 28, "chain-with-fair-image-but-no-fair-limit": 14}),
    Row("fair-reflection-bounded", check_fair_reflection, fair_reflection_bounded, fair_pair_cases,
        2019, 400, refutes_whenever,
        {"holds": 36, "chain-with-fair-image-but-no-fair-limit": 27, "refused": 137}),
    # relations and quotients, against fixpoints and backtracking
    Row("equivalence-closure", PartitionRelation.equivalence_closure, equivalence_closure_fixpoint,
        relation_cases, 5151, 300, both, {"merges": 110, "discrete": 40}),
    Row("branching-quotient", branching_quotient, branching_bisimilarity_fixpoint, refinement_cases,
        31, 2100, same_kernel, {"merges": 750, "discrete": 300}),
    Row("branching-bisimilarity", branching_bisimilarity, partial(brute_force_largest, kind="branching"),
        brute_force_cases, 23, 25, both, {"merges": 7, "discrete": 5}),
    Row("strong-bisim-fn", check_strong_bisim_fn, partial(brute_force_largest, kind="strong"),
        strong_quotient_cases, 11, 15, accepts_oracle_quotient, {"holds": 15}),
    # the concrete map checks, against loops over every state
    Row("simulation", is_simulation, least_failing_step, mixed_simulation_cases,
        3131, 300, same_steps, {"holds": 32, "fails": 117, "mixed types": 68}),
    Row("branching-sim", check_branching_sim, first_stutter, stutter_cases,
        1919, 600, both, {"stutter": 81, "holds": 301}),
    Row("branching-bisim-fn", check_branching_bisim_fn, weak_reflection_violation, image_map_cases,
        2121, 600, both, {"holds": 51, "no-weak-reflection": 51}),
    # the map checks of both routes
    Row("strong-bisim-map", check_bisim_map, strong_map_by_full_stream, strong_depth_cases,
        1601, 400, strong_map_at_depth, {"holds": 1, "fails": 1}),
    Row("branching-bisim-map", check_bisim_map, check_branching_bisim_fn, branching_candidates,
        4242, 210, branching_map_soundness,
        {"simulation": 20, "accepted": 1, "refused concretely": 1}),
    # the semantic presheaves and lifts, against their definitions
    Row("minimal-executions", branching_sem, minimal_executions, minimal_execution_cases,
        1906, 30, minimal_stages, {"mpast": 501}),
    Row("stuttering-lifts", branching_sem_map, naturality_violations, stuttering_image_cases,
        5, 300, natural_stutter_lifts, {"stutter": 41}),
    Row("step-images", branching_sem_map, map_pf, step_image_grid, 2029, 240, step_images,
        {**dict.fromkeys(("quotient", "random", "stretch", "plain", "silent loop", "collapsed",
                          "kept"), 1), **{("depth", depth): 1 for depth in range(6)}}),
    # presheaves as elements and arrays, against stage and component tables
    Row("presheaf-tables", id_lift, table_lift, lift_cases, 1616, 120, same_tables,
        {"restriction": 4000, **dict.fromkeys(LIFT_KINDS, 20),
         **{(kind, family, ok): 1 for kind in LIFT_KINDS for ok in (True, False)
            for family in ("fiber", "extension", "chain-limit")[:2 + (kind == "fair")]}}),
    # the square stream and its generator decision, against generic search
    Row("strong-squares", is_bisim_map_bounded, generic_bounded, strong_lifts, 2024, 40,
        same_square_decisions,
        {"holds": 1, "fails": 1, "both generators lift": 1, **_each_family("fiber", "extension")}),
    Row("branching-squares", is_bisim_map_bounded, generic_bounded, branching_lifts, 2025, 30,
        same_square_decisions,
        {"holds": 1, "fails": 1, "both generators lift": 1, **_each_family("fiber", "extension")}),
    Row("fair-squares", is_bisim_map_bounded, generic_bounded, fair_lifts, 2026, 16,
        same_square_decisions,
        {"holds": 1, "fails": 1, **_each_family("fiber", "extension", "chain-limit")}),
    Row("carried-branching", StreamSquare.has_filler, filler_by_restriction, carried_branching_lifts,
        2027, 300, carried_data,
        {"runs a silent loop": 101, "collapsed image": 1, **_each_family("fiber", "extension")}),
    Row("carried-strong", StreamSquare.has_filler, filler_by_restriction, carried_strong_lifts,
        2028, 300, carried_data, _each_family("fiber", "extension")),
)

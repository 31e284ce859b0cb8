"""Constructions that only the tests call.

The library keeps the decision engine: bases, presheaves, natural
transformations, the square stream and its generator decision.  What is
here builds presheaves and relations the tests compare the engine with (the
paper's left Kan extension along a hiding map, the category of elements,
sub-presheaves and inclusions for full squares), or checks its outputs
(``validate``), and slower forms of the library's searches to compare with.
"""

from __future__ import annotations

from dataclasses import dataclass

from bisimap.equiv import (
    _EXACT_KINDS, PartitionRelation, Verdict, _aa_init, _aa_step, _bfs_path, _node_key,
    _nontrivial, _reflection_violation, _split_pair_lasso, _steps_to, _transfer_violation,
    branching_quotient,
)
from bisimap.errors import InternalCheckError, PreconditionError, UnsupportedError
from bisimap.lts import (
    AlwaysAfterSpec, Execution, FairLts, Lasso, Lts, StreettSpec, adjacency, enumerate_graph_lassos,
    executions_up_to, fair_lassos, is_simulation, reach, restrict,
)
from bisimap.presheaf import FinPoset, FinPresheaf, _stage_sorted, make_presheaf, nat_trans
from bisimap.semantics import fair_mismatches, fair_simulation_violation
from bisimap.words import TAU, TAU_BAR, StretchPoint, Word, element_key

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
    return FinPresheaf(base, {}, {})


@dataclass(frozen=True)
class PresheafReport:
    ok: bool
    violations: tuple


def validate(F: FinPresheaf) -> PresheafReport:
    """Check each stored cover table: its domain is the stage above, its
    values lie in the stage below.  Over a forest there is one cover path
    per pair, so sound tables are all the presheaf laws ask."""
    bad = []
    for hi in F.base.elements:
        lo = F.base.parent[hi]
        if lo is None:
            continue
        table = F.res.get(hi)
        if table is None:
            if F.stage(hi):
                bad.append(("missing-restriction", lo, hi))
            continue
        if set(table) != set(F.stage(hi)):
            bad.append(("domain", lo, hi))
        lo_stage = set(F.stage(lo))
        for x, y in table.items():
            if y not in lo_stage:
                bad.append(("codomain", lo, hi, x))
    return PresheafReport(not bad, tuple(bad))


def sub_presheaf(F: FinPresheaf, generators) -> FinPresheaf:
    """Down-closure of the given (element, value) generators inside F."""
    stages = {}
    for (e, x) in generators:
        for lo in F.base.down(e):
            stages.setdefault(lo, set()).add(F.restrict(x, e, lo))
    return make_presheaf(F.base, {e: _stage_sorted(xs) for e, xs in stages.items()},
                         F.restrict)


def inclusion(sub: FinPresheaf, sup: FinPresheaf):
    return nat_trans(sub, sup, lambda e, x: x)


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
    off directly: the pairs (m, x) for x in F's stage at m.  The action
    restricts x to the first element of m's down-set with the requested
    image.
    """
    _check_hiding_shape(h)
    if F.base != h.source:
        raise PreconditionError("presheaf base and map source disagree")
    source = h.source

    def stage(rho):
        index = {s for s in source.elements if poset_leq(h.target, rho, h(s))}
        return _stage_sorted((m, x) for m in source.elements
                             if m in index and source.parent[m] not in index
                             for x in F.stage(m))

    def act(pair, frm, to):
        root, value = pair
        s = next(s for s in source.down(root) if h(s) == to)
        return (s, F.restrict(value, root, s))

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
    poset, together with the canonical simplification that drops the index
    wherever the element alone already determines it."""
    if not all(isinstance(e, int) for e in F.base.elements):
        raise PreconditionError("category of elements is built over a time poset")
    objs = [(e, x) for e in F.base.elements for x in F.stage(e)]

    def leq(a, b):
        (ea, xa), (eb, xb) = a, b
        return poset_leq(F.base, ea, eb) and F.restrict(xb, eb, ea) == xa

    raw = poset_from_leq(objs, leq)

    occurrences = {}
    for (e, x) in objs:
        occurrences.setdefault(x, set()).add(e)
    simplify = {}
    for (e, x) in objs:
        if len(occurrences[x]) == 1:
            simplify[(e, x)] = x
        elif x is TAU_BAR:
            simplify[(e, x)] = StretchPoint(e)
        else:
            simplify[(e, x)] = (e, x)
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


def first_stutter(f: dict, source: Lts):
    """The first (x1, x2, x3) in state order with silent runs from x1 to x2
    and from x2 to x3 and f(x1) = f(x3) != f(x2), or None."""
    eps = eps_closure(source)
    reach = {x: [y for y in source.states if y in eps[x]] for x in source.states}
    for x1 in source.states:
        for x2 in reach[x1]:
            for x3 in reach[x2]:
                if f[x1] == f[x3] and f[x1] != f[x2]:
                    return (x1, x2, x3)
    return None


def weak_reflection_violation(f: dict, source: Lts, target: Lts):
    """The first target step (f(x), a, y), for x in state order and then the
    steps of f(x) in adjacency order, that no x1 silently reachable from x
    with f(x1) = f(x) matches by an a-step into y's preimage; or None."""
    adjY, adjX = adjacency(target), adjacency(source)
    eps = eps_closure(source)
    for x in source.states:
        for (a, y) in adjY[f[x]]:
            if not any(f[x1] == f[x] and lab == a and f[x2] == y
                       for x1 in eps[x] for (lab, x2) in adjX[x1]):
                return (f[x], a, y)
    return None


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
    if not is_simulation(f, source.lts, target.lts)[0] or not _transfer_per_direction(*args, True).holds:
        raise PreconditionError("reflection is only defined for fair simulations")
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


def exists_fair_run(nodes, adj, spec, starts=None):
    """A lasso witnessing an infinite run satisfying the node-level condition,
    started from ``starts`` (default: anywhere), or None: a run that violates
    the Streett pair (every node, no node), as every infinite run does."""
    every_run = StreettSpec(((frozenset(nodes), frozenset()),))
    return violating_run_per_direction(nodes if starts is None else starts, adj, spec, every_run)


def _lifted_fair_run(source: FairLts, adj, f: dict, lasso: Lasso, starts):
    """A fair run of the source (successor lists ``adj``), started at one of
    ``starts``, that f maps pointwise onto the lasso's run, or None.  Decided
    on the product of the source with the lasso's positions: stem positions,
    then the cycle's."""
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
    return exists_fair_run(nodes, _synchronised(adj, step, nodes), spec, [(x, ("s", 0)) for x in starts])


def image_is_fair(source, f, lasso) -> bool:
    """``ImageFairness(source, f).is_fair(lasso)`` by ``_lifted_fair_run``."""
    starts = [x for x in source.lts.states if f[x] == lasso.stem.start]
    return _lifted_fair_run(source, adjacency(source.lts), f, lasso, starts) is not None


def hildebrandt_open_by_node_lifts(f, source, target, stem_bound=4, cycle_bound=4) -> Verdict:
    """``check_hildebrandt_open`` with ``_lifted_fair_run``."""
    if fair_simulation_violation(f, source, target, stem_bound, cycle_bound) is not None:
        raise PreconditionError("only fair simulations are checked for openness")
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

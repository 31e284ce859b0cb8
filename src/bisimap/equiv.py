"""Equivalence checkers and quotient constructions.

Every check returns a ``Verdict``; a failed verdict carries a witness that can
be re-evaluated against the violated condition.  Fairness conditions over
infinite runs (preserved and reflected along a map, transferred along a
relation) are decided exactly for Streett and positional fairness, in both
directions, by end-component analysis on a product graph, and by bounded lasso
enumeration otherwise or on request (such verdicts carry their bounds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import PreconditionError, UnsupportedError
from .lts import (
    Execution,
    FairLts,
    Lasso,
    Lts,
    StreettSpec,
    AlwaysAfterSpec,
    adjacency,
    enumerate_graph_lassos,
    fair_lassos,
    format_witness,
    is_simulation,
    reach,
    state_key,
    transition_str,
)
from .presheaf import is_bisim_map_bounded
from .semantics import (
    branching_sem_map,
    branching_simulation_violation,
    fair_mismatches,
    fair_sem_map,
    fair_simulation_violation,
    strong_sem_map,
)
from .words import TAU, Word

# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check; a witness is present exactly when it fails."""

    check: str
    holds: bool
    witness: object = None
    certified_bounds: dict = None
    notes: tuple = ()

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise PreconditionError("a holding verdict carries no witness")
        if not self.holds and self.witness is None:
            raise PreconditionError("a failing verdict carries a witness")

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "holds": self.holds,
            "witness": None if self.witness is None else format_witness(self.witness),
            "certified_bounds": self.certified_bounds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


# ---------------------------------------------------------------------------
# Relations on states


@dataclass(frozen=True)
class PartitionRelation:
    """A binary relation over a fixed state universe; its kind (raw, symmetric
    or equivalence) is computed, never assumed."""

    universe: tuple
    pairs: frozenset

    def __post_init__(self):
        known = set(self.universe)
        for (a, b) in self.pairs:
            if a not in known or b not in known:
                raise PreconditionError(f"relation mentions unknown state in {(a, b)}")

    @property
    def kind(self) -> str:
        sym = all((b, a) in self.pairs for (a, b) in self.pairs)
        if not sym:
            return "raw"
        refl = all((s, s) in self.pairs for s in self.universe)
        trans = all(
            (a, d) in self.pairs
            for (a, b) in self.pairs
            for (c, d) in self.pairs
            if b == c
        )
        return "equivalence" if (refl and trans) else "symmetric"

    def contains(self, a, b) -> bool:
        return (a, b) in self.pairs

    def reflexive_closure(self) -> "PartitionRelation":
        return PartitionRelation(
            self.universe, self.pairs | {(s, s) for s in self.universe}
        )

    @staticmethod
    def of_blocks(universe, blocks) -> "PartitionRelation":
        """The equivalence over the universe whose classes are the blocks,
        which partition it."""
        pairs = frozenset((a, b) for block in blocks for a in block for b in block)
        return PartitionRelation(tuple(universe), pairs)

    def equivalence_closure(self) -> "PartitionRelation":
        """The least equivalence containing the pairs: its classes are the
        components of the pairs read as undirected links."""
        links = {s: [] for s in self.universe}
        for (a, b) in self.pairs:
            links[a].append(b)
            links[b].append(a)
        comps, done = [], set()
        for s in self.universe:
            if s not in done:
                comps.append(reach([s], links.__getitem__))
                done |= comps[-1]
        return PartitionRelation.of_blocks(self.universe, comps)

    def after(self, other: "PartitionRelation") -> "PartitionRelation":
        """Relational composition self . other (other applies first)."""
        if self.universe != other.universe:
            raise PreconditionError("composition over different universes")
        pairs = {
            (a, c)
            for (a, b) in other.pairs
            for (b2, c) in self.pairs
            if b == b2
        }
        return PartitionRelation(self.universe, frozenset(pairs))

    def blocks(self) -> tuple:
        if self.kind != "equivalence":
            raise PreconditionError("blocks exist only for equivalences")
        out = []
        seen = set()
        for s in self.universe:
            if s in seen:
                continue
            block = frozenset(t for t in self.universe if (s, t) in self.pairs)
            seen |= block
            out.append(block)
        return tuple(sorted(out, key=lambda b: sorted(map(state_key, b))))

    @staticmethod
    def kernel_of(f: dict, universe) -> "PartitionRelation":
        """The equivalence relating the states that f sends to one image."""
        by_image = {}
        for s in universe:
            by_image.setdefault(f[s], []).append(s)
        return PartitionRelation.of_blocks(universe, by_image.values())


# ---------------------------------------------------------------------------
# Graph machinery for exact fairness analysis


# the fairness kinds that the end-component engine decides exactly
_EXACT_KINDS = (StreettSpec, AlwaysAfterSpec)


def _aa_init(spec: AlwaysAfterSpec, node):
    bad = spec.offset == 0 and node not in spec.allowed
    if max(len(spec.gate), spec.offset) == 0:
        return "fail" if bad else "live"
    return ("pre", 0, bad)


def _aa_step(spec: AlwaysAfterSpec, state, label, node):
    if state in ("ok", "fail"):
        return state
    if state == "live":
        return "live" if node in spec.allowed else "fail"
    _, i, bad = state
    if i < len(spec.gate) and label != spec.gate[i]:
        return "ok"
    pos = i + 1
    bad = bad or (pos >= spec.offset and node not in spec.allowed)
    if pos >= max(len(spec.gate), spec.offset):
        return "fail" if bad else "live"
    return ("pre", pos, bad)


def _node_key(n):
    return (str(n), repr(n))


def _sccs(nodes, adj, rank):
    """Strongly connected components of the induced subgraph, by one
    depth-first search (Tarjan, SIAM J. Comput. 1972) from the nodes in
    ``rank`` order (node -> position).  A component leaves the search path
    when its first-reached node finishes, so the reversed list is in
    Kosaraju's order."""
    inside = set(nodes)
    index, low, path, on_path, stack, comps = {}, {}, [], set(), [], []

    def enter(u):
        index[u] = low[u] = len(index)
        path.append(u)
        on_path.add(u)
        stack.append((u, iter(adj.get(u, ()))))

    for root in sorted(inside, key=rank.__getitem__):
        if root not in index:
            enter(root)
        while stack:
            u, succ = stack[-1]
            for (_, v) in succ:
                if v in inside and v not in index:
                    enter(v)
                    break
                if v in on_path:
                    low[u] = min(low[u], index[v])
            else:
                stack.pop()
                if stack:
                    w = stack[-1][0]
                    low[w] = min(low[w], low[u])
                if low[u] == index[u]:
                    comp = set()
                    while u not in comp:
                        comp.add(path.pop())
                    on_path -= comp
                    comps.append(frozenset(comp))
    comps.reverse()
    return comps


def _nontrivial(comp, adj):
    if len(comp) > 1:
        return True
    (n,) = comp
    return any(v == n for (_, v) in adj.get(n, ()))


def _find_streett_ec(span, adj, rank, pairs, want):
    """A nontrivial sub-component inside span satisfying every Streett pair
    and the extra predicate, or None; ``rank`` sets the search order.  A
    component that breaks some pairs (meets L, misses U) is searched again
    without those Ls, depth first: one loop over a stack of the components
    still to visit at each depth, so the nesting of the pairs sets no
    recursion depth."""
    stack = [iter(_sccs(span, adj, rank))]
    while stack:
        comp = next(stack[-1], None)
        if comp is None:
            stack.pop()
        elif _nontrivial(comp, adj):
            bad = [L for (L, U) in pairs if (comp & L) and not (comp & U)]
            if bad:
                stack.append(iter(_sccs(comp.difference(*bad), adj, rank)))
            elif want(comp):
                return comp
    return None


def _steps_to(node, parents):
    """The path to node in a BFS tree: its root and the (label, node) steps
    from there."""
    steps = []
    while parents[node] is not None:
        prev, lab = parents[node]
        steps.append((lab, node))
        node = prev
    steps.reverse()
    return node, steps


def _bfs_path(src, dst, adj, inside, require_step):
    """Shortest path src -> dst through ``inside`` as a list of (label, node);
    [] when src == dst and a step is not required."""
    if src == dst and not require_step:
        return []
    parents = {src: None}
    queue = [src]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        for (lab, v) in adj.get(u, ()):
            if v not in inside:
                continue
            if v == dst:
                return _steps_to(u, parents)[1] + [(lab, v)]
            if v not in parents:
                parents[v] = (u, lab)
                queue.append(v)
    return None


def _closed_walk(comp, adj, rank):
    """A closed walk visiting every node of a nontrivial component, from its
    first node in rank order."""
    order = sorted(comp, key=rank.__getitem__)
    start = order[0]
    walk = []
    cur = start
    for tgt in order[1:] + [start]:
        seg = _bfs_path(cur, tgt, adj, comp, require_step=False)
        walk.extend(seg)
        cur = tgt
    if not walk:
        walk = _bfs_path(start, start, adj, comp, require_step=True)
    return start, walk


class _Product:
    """The part of a graph reachable from ``starts`` (``steps`` gives a
    node's (label, successor) pairs), run in step with the automata of the
    two conditions where they are positional: nodes are (graph node, state
    of fair_a's automaton, state of unfair_b's), with None for a condition
    without one, and steps that fail fair_a are cut.  A condition is a
    (state-level spec, projection) pair, and its automaton reads each graph
    node's projection.

    It keeps what every search on it reads: its steps ``adj``, its BFS tree
    ``parents`` (node -> (parent, label), or None at a start), its nodes in
    visit order and their rank in ``_node_key`` order from one sort."""

    def __init__(self, starts, steps, fair_a, unfair_b):
        (spec_a, proj_a), (spec_b, proj_b) = fair_a, unfair_b
        a_aa = isinstance(spec_a, AlwaysAfterSpec)
        b_aa = isinstance(spec_b, AlwaysAfterSpec)
        self.adj, self.parents = {}, {}
        for v in sorted(starts, key=_node_key):
            sa = _aa_init(spec_a, proj_a(v)) if a_aa else None
            sb = _aa_init(spec_b, proj_b(v)) if b_aa else None
            if sa != "fail":
                self.parents.setdefault((v, sa, sb), None)
        self.nodes = list(self.parents)
        for u in self.nodes:  # the visit order is the BFS queue: it grows as we go
            v, sa, sb = u
            out = []
            for (lab, v2) in steps(v):
                sa2 = _aa_step(spec_a, sa, lab, proj_a(v2)) if a_aa else None
                if sa2 == "fail":
                    continue
                sb2 = _aa_step(spec_b, sb, lab, proj_b(v2)) if b_aa else None
                nxt = (v2, sa2, sb2)
                out.append((lab, nxt))
                if nxt not in self.parents:
                    self.parents[nxt] = (u, lab)
                    self.nodes.append(nxt)
            self.adj[u] = tuple(out)
        # a product node is a tuple, whose str is its repr: repr alone gives
        # the _node_key order
        self.rank = {p: i for (i, p) in enumerate(sorted(self.nodes, key=repr))}

    def pairs(self, cond):
        """A condition's Streett pairs over the product's nodes, each read on
        the projection of the node's graph node; () for a positional
        condition, which the product runs instead."""
        spec, proj = cond
        if not isinstance(spec, StreettSpec):
            return ()
        seen = [(p, proj(p[0])) for p in self.nodes]
        return tuple(
            (frozenset(p for (p, s) in seen if s in L), frozenset(p for (p, s) in seen if s in U))
            for (L, U) in spec.pairs
        )

    def lasso(self, comp, via=None, span=None) -> Lasso:
        """The lasso of graph nodes under a product run: down the BFS tree to
        the component's entry (or to ``via``, then on to the entry inside
        ``span``), then round a closed walk of the component."""
        entry, walk = _closed_walk(comp, self.adj, self.rank)
        if via is None:
            start, steps = _steps_to(entry, self.parents)
        else:
            start, steps = _steps_to(via, self.parents)
            steps += _bfs_path(via, entry, self.adj, span, require_step=False)
        stem = Execution(
            Word(lab for (lab, _) in steps),
            (start[0],) + tuple(p[0] for (_, p) in steps),
        )
        return Lasso(stem, tuple((lab, p[0]) for (lab, p) in walk)).canonical()


def exists_violating_run(starts, steps, fair_a, unfair_b, products=None):
    """A lasso witnessing an infinite run of the graph that ``steps`` gives
    (a node's (label, successor) pairs), started at one of ``starts``, that
    satisfies ``fair_a`` while violating ``unfair_b``, or None.  Each
    condition is a (spec, projection) pair: the state-level spec is read on
    the projection of each graph node.

    Exact for any mix of Streett and positional conditions: end-component
    analysis over the graph extended with the positional automata.  When
    neither condition is positional, that product is the same whichever
    condition is the fair one: a caller that asks again on the same graph
    passes the same dict as ``products``, and the product is built once.
    """
    positional = isinstance(fair_a[0], AlwaysAfterSpec) or isinstance(unfair_b[0], AlwaysAfterSpec)
    if products is None or positional:
        product = _Product(starts, steps, fair_a, unfair_b)
    else:
        product = products.get("streett")
        if product is None:
            product = products["streett"] = _Product(starts, steps, fair_a, unfair_b)
    prod_adj, rank = product.adj, product.rank
    a_pairs = product.pairs(fair_a)
    if isinstance(unfair_b[0], AlwaysAfterSpec):
        targets = sorted((p for p in product.nodes if p[2] == "fail"), key=rank.__getitem__)
        for t in targets:
            span = reach([t], lambda u: [v for (_, v) in prod_adj[u]])
            comp = _find_streett_ec(span, prod_adj, rank, a_pairs, lambda D: True)
            if comp is not None:
                return product.lasso(comp, via=t, span=span)
    else:
        for (L, U) in product.pairs(unfair_b):
            span = set(product.nodes) - U
            comp = _find_streett_ec(span, prod_adj, rank, a_pairs, lambda D: bool(D & L))
            if comp is not None:
                return product.lasso(comp)
    return None


_EVERY_RUN = (StreettSpec(((frozenset({True}), frozenset()),)), lambda v: True)


def exists_fair_run(starts, steps, fair):
    """A lasso witnessing an infinite run from one of ``starts`` that
    satisfies the condition ``fair``, or None, with graph and condition as in
    ``exists_violating_run``: a run that violates a Streett pair whose L
    holds every node and U none, as every infinite run does."""
    return exists_violating_run(starts, steps, fair, _EVERY_RUN)


# ---------------------------------------------------------------------------
# Lifting lasso runs along a map


def _lifted_fair_run(source: FairLts, adj, f: dict, lasso: Lasso, starts):
    """A fair run of the source (successor lists ``adj``), started at one of
    ``starts``, that f maps pointwise onto the lasso's run, or None.  Decided
    on the product of the source with the lasso's positions 0 .. k + n (a
    stem of k steps, a cycle of n): (x, i) -a-> (x2, j) when x -a-> x2, a is
    the lasso's label at i, f(x2) is its state at j, and j is i + 1, or
    k + 1 after the last position.  Callers read only whether a run exists,
    which the order of the positions does not change."""
    if not isinstance(source.fairness, _EXACT_KINDS):
        raise UnsupportedError("source fairness kind unsupported for lifting runs")
    k = len(lasso.stem.trace)
    last = k + len(lasso.cycle)

    def steps(node):
        x, i = node
        lab = lasso.label_at(i)
        j = i + 1 if i < last else k + 1
        y = lasso.state_at(j)
        return [(a, (x2, j)) for (a, x2) in adj[x] if a == lab and f[x2] == y]

    return exists_fair_run([(x, 0) for x in starts], steps, (source.fairness, itemgetter(0)))


# ---------------------------------------------------------------------------
# Image fairness (quotient systems)


@dataclass(frozen=True)
class ImageFairness:
    """Fairness of a quotient system: a lasso is fair iff some fair run of the
    source maps pointwise onto its unrolling (decided exactly on the
    synchronized product)."""

    source: FairLts
    mapping_items: tuple
    _adj: dict = field(default=None, compare=False, repr=False)  # the source's, if built

    def __post_init__(self):
        # set here, as in FinPoset, and so no part of equality or hash
        object.__setattr__(self, "_f", dict(self.mapping_items))
        if self._adj is None:
            object.__setattr__(self, "_adj", adjacency(self.source.lts))

    def is_fair(self, lasso: Lasso) -> bool:
        starts = [x for x in self.source.lts.states if self._f[x] == lasso.stem.start]
        return _lifted_fair_run(self.source, self._adj, self._f, lasso, starts) is not None


# ---------------------------------------------------------------------------
# Strong checks


def _unreached(f: dict, source: Lts, target: Lts):
    """The first target state outside f's image, or None if f is onto."""
    image = {f[s] for s in source.states}
    return next((y for y in target.states if y not in image), None)


def _transfer_violation(f: dict, source: Lts, target: Lts, adjX):
    """A tagged witness against surjectivity, then against reflection of the
    target's transitions along f; None if f has both.  ``adjX`` holds the
    source's successor lists."""
    y = _unreached(f, source, target)
    if y is not None:
        return ("not-surjective", y)
    w = _reflection_violation(f, source, target, adjX)
    return None if w is None else ("no-reflection", w)


def _reflection_violation(f: dict, source: Lts, target: Lts, adjX):
    adjY = adjacency(target)
    for x in source.states:
        for (a, y) in adjY[f[x]]:
            if not any(l == a and f[x2] == y for (l, x2) in adjX[x]):
                return (x, a, y)
    return None


def check_strong_bisim_fn(f: dict, source: Lts, target: Lts) -> Verdict:
    """Surjectivity plus reflection of the target's transitions along f."""
    ok, witness = is_simulation(f, source, target)
    if not ok:
        raise PreconditionError(f"not a simulation: violates {transition_str(*witness)}")
    w = _transfer_violation(f, source, target, adjacency(source))
    return Verdict("strong-bisim-fn", w is None, w)


# ---------------------------------------------------------------------------
# Fair checks


def check_fair_sim(f: dict, source: FairLts, target: FairLts,
                   stem_bound: int = 4, cycle_bound: int = 4) -> Verdict:
    """Transition preservation plus preservation of fair lassos in bounds."""
    w = fair_simulation_violation(f, source, target, stem_bound, cycle_bound)
    bounds = {"stem_bound": stem_bound, "cycle_bound": cycle_bound} if w is None else None
    return Verdict("fair-sim", w is None, w, certified_bounds=bounds)


def check_fair_reflection(f: dict, source: FairLts, target: FairLts,
                          mode: str = "exact_streett",
                          stem_bound: int = 4, cycle_bound: int = 4) -> Verdict:
    """No run of the source may have a fair image without being fair itself
    (limits of increasing execution chains, by Kleene equality: both sides
    undefined counts as satisfied).  The precondition, that f is a fair
    simulation, is decided in the same mode."""
    transfer = _fair_transfer("fair-reflection", f, source, target, adjacency(source.lts),
                              mode, stem_bound, cycle_bound)
    ok, w = is_simulation(f, source.lts, target.lts)
    w = transfer(True).witness if ok else ("transition", w)
    if w is not None:
        raise PreconditionError("reflection is only defined for fair simulations: " + format_witness(w))
    return transfer(False)


def _exact_then_bounded(check, mode, exact_kinds, exact, bounded,
                        stem_bound, cycle_bound) -> Verdict:
    """Decide whether some run of a graph satisfies one fairness condition
    and violates another: exactly by ``exact()``, the tagged witness of an
    ``exists_violating_run`` lasso or None, when mode is ``exact_streett``
    and the conditions are of exact kinds (``exact_kinds``), else by the
    first witness of ``bounded()``, an iterator over the candidates within
    the bounds."""
    notes = ()
    if mode == "exact_streett":
        if exact_kinds:
            w = exact()
            return Verdict(check, w is None, w)
        notes = ("fairness kind unsupported in exact mode; falling back to bounded",)
    elif mode != "bounded":
        raise PreconditionError(f"unknown mode {mode!r}")
    w = next(bounded(), None)
    if w is not None:
        return Verdict(check, False, w, notes=notes)
    bounds = {"stem_bound": stem_bound, "cycle_bound": cycle_bound}
    return Verdict(check, True, certified_bounds=bounds, notes=notes)


def _fair_transfer(check, f, source, target, adj, mode, stem_bound, cycle_bound):
    """Whether fairness transfers along f, as a function of the direction:
    with ``preserve`` no run of the source (successor lists ``adj``) may be
    fair with an unfair image, without it none may be unfair with a fair
    image.

    The exact decision reads the source's own condition on each state and
    the target's on its image under f.  The two directions share what they
    build, each part on first use: the source's tagged lassos for the
    bounded decision, the product graph for the exact one."""
    own, image = (source.fairness, lambda x: x), (target.fairness, f.__getitem__)
    exact_kinds = isinstance(own[0], _EXACT_KINDS) and isinstance(image[0], _EXACT_KINDS)
    built, products = {}, {}

    def transfer(preserve):
        tag = "unfair-image" if preserve else "chain-with-fair-image-but-no-fair-limit"

        def exact():
            fair_a, unfair_b = (own, image) if preserve else (image, own)
            w = exists_violating_run(source.lts.states, adj.__getitem__, fair_a, unfair_b, products)
            return None if w is None else (tag, (w, w.map_states(f).canonical()))

        def bounded():
            if "lassos" not in built:
                built["lassos"] = fair_lassos(source, stem_bound, cycle_bound)
            return ((tag, m) for m in fair_mismatches(f, target, built["lassos"], preserve))

        return _exact_then_bounded(check, mode, exact_kinds, exact, bounded,
                                   stem_bound, cycle_bound)

    return transfer


def check_fair_bisim_fn(f: dict, source: FairLts, target: FairLts,
                        mode: str = "exact_streett",
                        stem_bound: int = 4, cycle_bound: int = 4) -> Verdict:
    """Fair simulation + surjectivity + transition reflection + limit
    reflection, in that order.  Fairness is preserved and reflected as
    decided in ``mode``, so the fair-simulation part follows the mode too."""
    ok, w = is_simulation(f, source.lts, target.lts)
    if not ok:
        return Verdict("fair-bisim-fn", False, ("transition", w))
    adj = adjacency(source.lts)
    transfer = _fair_transfer("fair-bisim-fn", f, source, target, adj, mode, stem_bound, cycle_bound)
    kept = transfer(True)
    if not kept.holds:
        return kept
    w = _transfer_violation(f, source.lts, target.lts, adj)
    return Verdict("fair-bisim-fn", False, w) if w is not None else transfer(False)


def check_hildebrandt_open(f: dict, source: FairLts, target: FairLts,
                           stem_bound: int = 4, cycle_bound: int = 4) -> Verdict:
    """Transition reflection plus lifting of fair target runs anchored at an
    image state (finite runs exactly, infinite runs over lassos in bounds)."""
    w = fair_simulation_violation(f, source, target, stem_bound, cycle_bound)
    if w is not None:
        raise PreconditionError("only fair simulations are checked for openness: " + format_witness(w))
    adj = adjacency(source.lts)
    w = _reflection_violation(f, source.lts, target.lts, adj)
    if w is not None:
        return Verdict("hildebrandt-open", False, ("no-reflection", w))
    bounds = {"stem_bound": stem_bound, "cycle_bound": cycle_bound}
    fair_targets = [l for (l, ok) in fair_lassos(target, stem_bound, cycle_bound) if ok]
    for x in source.lts.states:
        for q in fair_targets:
            if q.stem.start == f[x] and _lifted_fair_run(source, adj, f, q, [x]) is None:
                return Verdict("hildebrandt-open", False, ("unliftable-fair-run", (x, q)))
    return Verdict("hildebrandt-open", True, certified_bounds=bounds)


def check_forall_fair_bisim(R: PartitionRelation, system: FairLts,
                            mode: str = "exact_streett",
                            stem_bound: int = 4, cycle_bound: int = 4, *, _adj=None) -> Verdict:
    """The two transfer properties of a fairness-respecting equivalence.

    Condition (1): related states match transitions into related states.
    Condition (2): no pair of pointwise-related infinite runs where the left
    is fair and the right is not; decided on the synchronized product of
    related pairs (exactly for Streett/positional fairness, by bounded lasso
    pairs otherwise).  ``_adj``: the system's successor lists, if built.
    """
    kind = R.kind
    if kind != "equivalence":
        return Verdict("forall-fair-bisim", False, ("not-equivalence", kind))
    adjX = adjacency(system.lts) if _adj is None else _adj
    nodes = sorted(R.pairs, key=lambda xy: (state_key(xy[0]), state_key(xy[1])))
    for (x, y) in nodes:
        for (a, x2) in adjX[x]:
            if not any(b == a and R.contains(x2, y2) for (b, y2) in adjX[y]):
                return Verdict("forall-fair-bisim", False,
                               ("no-transfer", ((x, y), (x, a, x2))))

    def steps(pair):  # both sides step by one label into a related pair
        return [(a, (x2, y2)) for (a, x2) in adjX[pair[0]] for (b, y2) in adjX[pair[1]]
                if a == b and R.contains(x2, y2)]

    tag = "fairness-not-transferred"

    def bounded():
        adj = {p: steps(p) for p in nodes}
        for lasso in enumerate_graph_lassos(nodes, adj, stem_bound, cycle_bound):
            left, right = _split_pair_lasso(lasso)
            if system.fairness.is_fair(left) and not system.fairness.is_fair(right):
                yield (tag, (left, right))

    def exact():
        w = exists_violating_run(nodes, steps, (system.fairness, itemgetter(0)),
                                 (system.fairness, itemgetter(1)))
        return None if w is None else (tag, _split_pair_lasso(w))

    return _exact_then_bounded("forall-fair-bisim", mode, isinstance(system.fairness, _EXACT_KINDS),
                               exact, bounded, stem_bound, cycle_bound)


def _split_pair_lasso(lasso: Lasso):
    """The left and right runs of a lasso of related pairs."""
    pairs = set(lasso.stem.states) | lasso.cycle_states
    return tuple(lasso.map_states({p: p[i] for p in pairs}).canonical() for i in (0, 1))


def forall_fair_quotient(R: PartitionRelation, system: FairLts,
                         mode: str = "exact_streett",
                         stem_bound: int = 4, cycle_bound: int = 4):
    """Quotient by a fairness-respecting equivalence: block transitions are
    induced, and a quotient lasso is fair iff some related source run maps
    onto it.  Returns (quotient system, quotient map)."""
    adj = adjacency(system.lts)
    verdict = check_forall_fair_bisim(R, system, mode, stem_bound, cycle_bound, _adj=adj)
    if not verdict.holds:
        raise PreconditionError("not a fairness-respecting equivalence: " + format_witness(verdict.witness))
    quotient, f = quotient_lts(system.lts, R)
    fair = ImageFairness(system, tuple(sorted(f.items(), key=lambda item: state_key(item[0]))), adj)
    return FairLts(quotient, fair), f


def quotient_lts(lts: Lts, R: PartitionRelation):
    """Quotient by an equivalence with induced transitions (no silent-step
    special casing): one state per block, named by its members joined with
    ``+``, bracketed until the name is no state's and no earlier block's, so
    the states must be strings.  Returns (quotient, map)."""
    for s in lts.states:
        if not isinstance(s, str):
            raise PreconditionError("a quotient names each block by joining its members' names,"
                                    f" so states must be strings, not {s!r}")
    blocks = R.blocks()
    taken = set(lts.states)
    names = []
    for b in blocks:
        bname = "+".join(sorted(b))
        while len(b) > 1 and bname in taken:
            bname = f"[{bname}]"
        taken.add(bname)
        names.append(bname)
    name = {s: bname for (bname, b) in zip(names, blocks) for s in b}
    transitions = {(name[x], a, name[y]) for (x, a, y) in lts.transitions}
    quotient = Lts.make(names, lts.alphabet, transitions)
    return quotient, {s: name[s] for s in lts.states}


# ---------------------------------------------------------------------------
# Branching checks


def check_branching_sim(f: dict, source: Lts, target: Lts) -> Verdict:
    violation = branching_simulation_violation(f, source, target)
    if violation is None:
        return Verdict("branching-sim", True)
    return Verdict("branching-sim", False, violation)


def check_branching_bisim_fn(f: dict, source: Lts, target: Lts) -> Verdict:
    """Branching simulation + surjectivity + weak reflection of target steps.

    Weak reflection asks that, for every x and every target step
    f(x) -a-> y, some x1 silently reachable from x with f(x1) = f(x) takes
    an a-step to some x2 with f(x2) = y.  It is read backwards: one search
    per distinct target step, from the sources of the steps that f maps
    onto it, against silent steps inside their preimage; an x of that
    preimage it misses is a violation.  Keeping inside the preimage loses
    nothing, since f is a branching simulation by then: a silent run that
    leaves f(x)'s preimage and comes back to it is a stutter.  The witness
    is the first failing x in state order, with its first failing step in
    adjacency order."""
    violation = branching_simulation_violation(f, source, target)
    if violation is not None:
        return Verdict("branching-bisim-fn", False, violation)
    y = _unreached(f, source, target)
    if y is not None:
        return Verdict("branching-bisim-fn", False, ("not-surjective", y))
    preimage = {}
    for x in source.states:
        preimage.setdefault(f[x], []).append(x)
    inner, onto = {x: [] for x in source.states}, {}
    for (x1, a, x2) in source.transitions:
        onto.setdefault((f[x1], a, f[x2]), []).append(x1)
        if a is TAU and f[x1] == f[x2]:
            inner[x2].append(x1)
    missed = {}
    adjY = adjacency(target)
    for (y, P) in preimage.items():
        for (a, y2) in adjY[y]:
            hit = reach(onto.get((y, a, y2), ()), inner.__getitem__)
            for x in P:
                if x not in hit:
                    missed.setdefault(x, (y, a, y2))
    x = next((x for x in source.states if x in missed), None)
    if x is None:
        return Verdict("branching-bisim-fn", True)
    return Verdict("branching-bisim-fn", False, ("no-weak-reflection", missed[x]))


def branching_bisimilarity(lts: Lts) -> PartitionRelation:
    """Signature refinement (Groote & Vaandrager, ICALP 1990; signatures as
    in Blom & Orzan, PDMC 2003).  Starting from one block, each round
    regroups the states s by (block of s, {(a, block of t)}), where s' -a-> t
    ranges over the steps of the states s' that s reaches by silent steps
    inside its block, except silent steps that stay in it.  Blocks only
    split; once none splits, they are the largest branching bisimulation."""
    adj = adjacency(lts)
    block, count = dict.fromkeys(lts.states, 0), 0
    while True:
        groups = {}
        for s in lts.states:
            seen, stack, moves = {s}, [s], set()
            while stack:
                for (a, t) in adj[stack.pop()]:
                    if a is not TAU or block[t] != block[s]:
                        moves.add((a, block[t]))
                    elif t not in seen:
                        seen.add(t)
                        stack.append(t)
            groups.setdefault((block[s], frozenset(moves)), []).append(s)
        if len(groups) == count:
            break
        count = len(groups)
        block = {s: i for (i, members) in enumerate(groups.values()) for s in members}
    return PartitionRelation.of_blocks(lts.states, groups.values())


def branching_quotient(lts: Lts):
    """Quotient by branching bisimilarity, dropping silent steps inside a
    block (they are stutter steps of the quotient map).  Returns (quotient,
    map); the map's kernel is the bisimilarity."""
    quotient, f = quotient_lts(lts, branching_bisimilarity(lts))
    stutter = {(b, TAU, b) for b in quotient.states}
    return Lts.make(quotient.states, quotient.alphabet, quotient.transitions - stutter), f


# ---------------------------------------------------------------------------
# Abstract bisimulation-map check


def _simulation_or_refuse(concrete: Verdict, kind: str, tags) -> Verdict:
    """The concrete verdict, unless its witness, tagged by one of ``tags``,
    shows that f is no simulation of the kind and so has no lift."""
    if not concrete.holds and concrete.witness[0] in tags:
        raise PreconditionError(f"not a {kind} simulation: " + format_witness(concrete.witness))
    return concrete


@dataclass(frozen=True)
class BisimMapReport:
    """Both verdicts for one morphism: the square-filler check on the semantic
    presheaves, and the concrete characterization."""

    mode: str
    presheaf_verdict: Verdict
    concrete_verdict: Verdict

    @property
    def agreement(self) -> bool:
        return self.presheaf_verdict.holds == self.concrete_verdict.holds


def check_bisim_map(f: dict, source, target, mode: str,
                    depth: int = 4, stem_bound: int = 4, cycle_bound: int = 4) -> BisimMapReport:
    """Lift f to the mode's semantic presheaves, run the bounded square-filler
    check, and evaluate the concrete characterization alongside.

    In strong mode the two verdicts agree.  In the other modes they can
    differ, which is why both are reported side by side:

    * fair: the filler check can accept a map that the concrete check
      refuses.  A square sees only finite prefixes of an infinite run, and
      every prefix of an unfair source run can extend to a fair lasso, while
      the concrete check asks that every run with a fair image be fair
      (a loop ``s1 -a-> s1`` that must visit ``s0`` infinitely often, mapped
      onto a one-state loop, is refused concretely and accepted here at
      every depth tried, 2 to 5);
    * branching: the filler check refuses some maps that the concrete check
      accepts, at every depth tried so far.

    Strong maps are lifted at depth ``min(depth, 1)``, with the verdict and
    witness of every depth >= 1 (path lifting, as in Joyal, Nielsen &
    Winskel, Inf. & Comput. 1996).  At depth 1 the ``fiber`` squares at the
    empty word test that f is onto, and the ``extension`` squares
    ``(a, y -a-> y', eps, x)`` test one-step reflection; if both hold, every
    longer square is filled by lifting one step at a time.  The stream visits
    elements shortest first, and stages of length <= 1 do not depend on the
    depth, so the first failing square is the same at every depth >= 1.

    In fair and branching modes the concrete route first decides that f is
    a simulation of the mode: a map it refuses for a broken transition or a
    fair run with an unfair image (fair, exact for Streett and positional
    fairness), or for a step without an image or a stutter (branching),
    raises ``PreconditionError`` at any bounds."""
    bounds = {"depth": depth}
    if mode == "strong":
        if not isinstance(source, Lts) or not isinstance(target, Lts):
            raise PreconditionError("strong mode takes plain systems")
        if source.has_tau or target.has_tau:
            raise PreconditionError("strong mode takes systems without silent steps")
        lifted = strong_sem_map(f, source, target, min(depth, 1))
        concrete = check_strong_bisim_fn(f, source, target)
    elif mode == "fair":
        if not isinstance(source, FairLts) or not isinstance(target, FairLts):
            raise PreconditionError("fair mode takes fair systems")
        concrete = _simulation_or_refuse(
            check_fair_bisim_fn(f, source, target, "exact_streett", stem_bound, cycle_bound),
            "fair", ("transition", "unfair-image"))
        lifted = fair_sem_map(f, source, target, depth, stem_bound, cycle_bound)
        bounds.update({"stem_bound": stem_bound, "cycle_bound": cycle_bound})
    elif mode in ("branching", "branching_failed"):
        if isinstance(source, FairLts) or isinstance(target, FairLts):
            raise PreconditionError("branching modes take plain systems")
        concrete = _simulation_or_refuse(check_branching_bisim_fn(f, source, target),
                                         "branching", ("visible", "silent", "stutter"))
        lifted = branching_sem_map(f, source, target, depth,
                                   with_stretch=(mode == "branching"))
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    ok, square = is_bisim_map_bounded(lifted)
    if ok:
        presheaf_verdict = Verdict(f"bisim-map-{mode}", True, certified_bounds=bounds)
    else:
        presheaf_verdict = Verdict(f"bisim-map-{mode}", False, square)
    return BisimMapReport(mode, presheaf_verdict, concrete)

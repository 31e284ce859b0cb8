"""Semantic presheaves of transition systems.

Three constructions are provided, all depth-truncated uniformly (restriction
only shortens words, so truncation is closed):

* strong: stages are all executions with a given visible trace;
* fair: the finite stages as above, plus one stage per ultimately periodic
  trace realized by a fair lasso within bounds, holding those lassos;
* branching: stages over visible words hold minimal executions (no trailing
  silent steps), and an extra stage holds the purely silent executions,
  restricting to their start states.  Both are read off one walk of the
  execution tree (``execution_tree``): a restriction is a node's anchor
  link, back to its last visible step but one, or to its root.  The
  branching lift is a map of execution trees: a node's image is its
  parent's image, extended by the image of its last step unless f collapses
  that step.

Each rule is written once: one builder (``_execution_presheaf``) with one
restriction rule makes the strong and fair presheaves and the bases, and
``_step_images`` alone states the step clauses of a branching simulation.

Each construction lifts suitable state maps to natural transformations, and
hands ``make_presheaf`` only the stages its executions reach.
``make_presheaf`` asks each restriction rule only along the cover edges of
the base: from a word to the word one letter shorter, from a lasso trace to
its longest prefix in the base, from a stretch point to the one below it or
to the empty word, and from ``tau_bar`` to the empty word.  Every stage is
handed over in stage order (``_stage_sorted``, or for the branching stages
one ``_by_text`` over every node kept, on the text each node carries).
"""

from __future__ import annotations

from .errors import InternalCheckError, PreconditionError
from .lts import (
    Execution,
    FairLts,
    Lts,
    check_map_shape,
    execution_tree,
    executions_up_to,
    fair_lassos,
    format_witness,
    is_simulation,
    reach,
    restrict,
    transition_str,
)
from .presheaf import (
    FinPresheaf,
    NatTrans,
    _by_text,
    _stage_sorted,
    barred_source_poset,
    branching_target_poset,
    fair_target_poset,
    make_presheaf,
    nat_trans,
    word_poset,
)
from .words import EPSILON, TAU, LassoTrace, StretchPoint, TAU_BAR


def _joint_alphabet(*systems) -> tuple:
    return tuple(sorted(set().union(*(s.alphabet for s in systems))))


# ---------------------------------------------------------------------------
# Execution presheaves: strong, fair, and the bases for silent-step systems


def _execution_presheaf(base, execs: dict, more=()) -> FinPresheaf:
    """The executions ``execs``, keyed by trace, over a base, plus the
    ``(element, stage)`` pairs ``more`` at lasso traces or stretch points.
    One restriction rule: a word cuts to a prefix, a lasso trace unrolls,
    and a stretch point goes to itself, or to the start at the empty word."""
    stages = {w: _stage_sorted(ps) for w, ps in execs.items()}
    stages.update(more)

    def act(x, frm, to):
        if isinstance(frm, LassoTrace):
            return x.unroll(len(to))
        if isinstance(frm, StretchPoint):
            return x if isinstance(to, StretchPoint) else restrict(x, EPSILON)
        return restrict(x, to)

    return make_presheaf(base, stages, act)


def _pointwise(f: dict, e, x):
    """The component of a lift by post-composition at e: f applied to every
    state of an execution, or of a lasso, which is then made canonical."""
    if isinstance(e, LassoTrace):
        return x.map_states(f).canonical()
    return Execution(x.trace, tuple(f[s] for s in x.states))


def strong_sem(lts: Lts, depth: int) -> FinPresheaf:
    """The presheaf of executions over visible words up to the depth."""
    if lts.has_tau:
        raise PreconditionError("strong semantics is for systems without silent steps")
    base = word_poset(_joint_alphabet(lts), depth)
    return _execution_presheaf(base, executions_up_to(lts, depth))


def strong_sem_map(f: dict, source: Lts, target: Lts, depth: int) -> NatTrans:
    """Lift a simulation to the execution presheaves (post-composition), both
    built over one base."""
    ok, witness = is_simulation(f, source, target)
    if not ok:
        raise PreconditionError(f"not a simulation: violates {transition_str(*witness)}")
    if source.has_tau or target.has_tau:
        raise PreconditionError("strong semantics is for systems without silent steps")
    base = word_poset(_joint_alphabet(source, target), depth)
    FX = _execution_presheaf(base, executions_up_to(source, depth))
    FY = _execution_presheaf(base, executions_up_to(target, depth))
    return nat_trans(FX, FY, lambda e, x: _pointwise(f, e, x))


def _fair_stages(lassos) -> dict:
    """The fair ones of the lassos tagged by fairness, in one stage per
    trace, each in stage order."""
    by_trace = {}
    for (l, ok) in lassos:
        if ok:
            by_trace.setdefault(l.trace(), []).append(l)
    return {e: _stage_sorted(xs) for e, xs in by_trace.items()}


def fair_sem(fl: FairLts, depth: int, stem_bound: int = 4, cycle_bound: int = 4) -> FinPresheaf:
    """Execution presheaf extended with one stage per fair-lasso trace.

    An infinite stage holds the canonical fair lassos realizing its trace;
    restriction to a finite word unrolls the lasso.
    """
    more = _fair_stages(fair_lassos(fl, stem_bound, cycle_bound))
    base = fair_target_poset(_joint_alphabet(fl.lts), depth, more.keys())
    return _execution_presheaf(base, executions_up_to(fl.lts, depth), more.items())


def fair_mismatches(f: dict, target: FairLts, lassos, preserve: bool):
    """The (lasso, canonical image) pairs, in the order of the source's
    tagged lassos (``fair_lassos``), whose fairness f does not transfer:
    fair lassos with unfair images when ``preserve``, else unfair lassos
    with fair images."""
    for (lasso, fair) in lassos:
        if fair == preserve:
            image = lasso.map_states(f).canonical()
            if target.fairness.is_fair(image) != preserve:
                yield (lasso, image)


def fair_simulation_violation(f: dict, source: FairLts, target: FairLts,
                              stem_bound: int = 4, cycle_bound: int = 4):
    """None if f preserves transitions and (within bounds) fair lassos;
    otherwise a tagged witness."""
    ok, witness = is_simulation(f, source.lts, target.lts)
    if not ok:
        return ("transition", witness)
    lassos = fair_lassos(source, stem_bound, cycle_bound)
    w = next(fair_mismatches(f, target, lassos, True), None)
    return None if w is None else ("unfair-image", w)


def fair_sem_map(f: dict, source: FairLts, target: FairLts, depth: int,
                 stem_bound: int = 4, cycle_bound: int = 4) -> NatTrans:
    """Lift a fair simulation, which ``check_bisim_map`` decides exactly and
    this lift takes as given, to the fair-semantics presheaves over one base."""
    more_x = _fair_stages(fair_lassos(source, stem_bound, cycle_bound))
    more_y = _fair_stages(fair_lassos(target, stem_bound, cycle_bound))
    traces = more_x.keys() | more_y.keys()
    base = fair_target_poset(_joint_alphabet(source.lts, target.lts), depth, traces)
    FX = _execution_presheaf(base, executions_up_to(source.lts, depth), more_x.items())
    FY = _execution_presheaf(base, executions_up_to(target.lts, depth), more_y.items())
    return nat_trans(FX, FY, lambda e, x: _pointwise(f, e, x))


def base_presheaf(lts: Lts, depth: int, barred: bool = False) -> FinPresheaf:
    """The execution presheaf over words with silent letters; in barred mode
    the base gains the stretch points, whose common stage collects all purely
    silent executions and restricts to the start state at the empty word."""
    labels = _joint_alphabet(lts) + (TAU,)
    if not barred:
        return _execution_presheaf(word_poset(labels, depth), executions_up_to(lts, depth))
    base = barred_source_poset(labels, depth)
    execs = executions_up_to(lts, depth)
    silent = _stage_sorted(p for w, ps in execs.items() if not w.visible() for p in ps)
    stretch = ((StretchPoint(n), silent) for n in range(1, depth + 1))
    return _execution_presheaf(base, execs, stretch)


# ---------------------------------------------------------------------------
# Branching semantics


def _branching_base(labels, depth: int, with_stretch: bool):
    if with_stretch:
        return branching_target_poset(labels, depth)
    return word_poset(labels, depth)


def _minimal_presheaf(base, tree) -> FinPresheaf:
    """The minimal executions among the nodes of an execution tree
    (``execution_tree``) over a branching base, with the purely silent ones
    at the stretchable observation if the base has it.

    The stage at a visible word rho holds the nodes with visible word rho
    that end in a visible step, the stage at the empty word the roots, and
    the stretch stage the nodes with no visible step.  The kept nodes are
    sorted once (``_by_text``) and dealt to their stages in one pass, which
    orders every stage as its own sort would: a tie anywhere breaks every
    stage by ``repr``, which keeps a tie-free stage's order.  Each
    restriction is the anchor link: cutting a minimal execution back after
    its last visible step but one, or a silent one back to its start."""
    stretch = TAU_BAR in base.parent
    named = []
    for (p, text, rho, up, _) in tree:
        trace = p.trace
        at = (TAU_BAR,) if stretch and not rho else ()
        if not trace or trace[-1] is not TAU:
            at += (rho,)
        if at:
            named.append((text, p, at, up))
    stages, anchor = {}, {}
    for (_, p, at, up) in _by_text(named):
        anchor[p] = up
        for e in at:
            stages.setdefault(e, []).append(p)
    return make_presheaf(base, stages, lambda x, frm, to: anchor[x])


def branching_sem(lts: Lts, depth: int, with_stretch: bool = True) -> FinPresheaf:
    """The presheaf of minimal executions over visible words.

    With ``with_stretch`` (the correct construction) the base gains the
    stretchable observation above the empty word, whose stage holds all purely
    silent executions; without it one obtains the coarser variant that forgets
    silent steps entirely.
    """
    base = _branching_base(_joint_alphabet(lts), depth, with_stretch)
    return _minimal_presheaf(base, execution_tree(lts, depth))


def branching_simulation_violation(f: dict, source: Lts, target: Lts):
    """None if f is a branching simulation, else a tagged witness: visible
    steps must map to steps, silent steps must map to steps or collapse, and
    silent stuttering must be respected.  A step witness is the one of
    ``_step_images``; a stutter witness is the first (x1, x2, x3) in state
    order with silent runs from x1 to x2 and from x2 to x3, and
    f(x1) = f(x3) != f(x2)."""
    _, missing = _step_images(f, source, target)
    if missing is not None:
        return missing
    stutter = _first_stutter(f, source)
    return None if stutter is None else ("stutter", stutter)


def _first_stutter(f: dict, source: Lts):
    """The first (x1, x2, x3) in state order with silent runs from x1 to x2
    and from x2 to x3 and f(x1) = f(x3) != f(x2), or None.

    Backward searches per target state y, over silent steps: the middles
    are the states outside y's preimage P that reach P, and x1 ranges over
    the states of P that reach a middle (none: y has no stutter).  x2 is the
    first middle that x1 reaches, x3 the first state of P that x2 reaches,
    each first in state order."""
    succ = {s: [] for s in source.states}
    pred = {s: [] for s in source.states}
    for (u, lab, v) in source.transitions:
        if lab is TAU and u != v:
            succ[u].append(v)
            pred[v].append(u)
    preimage = {}
    for s in source.states:
        preimage.setdefault(f[s], set()).add(s)
    order = {s: i for i, s in enumerate(source.states)}
    first = None
    for P in preimage.values():
        middles = reach(P, pred.__getitem__) - P
        starts = P & reach(middles, pred.__getitem__)
        if not starts:
            continue
        x1 = min(starts, key=order.__getitem__)
        if first is None or order[x1] < order[first[0]]:
            x2 = min(reach([x1], succ.__getitem__) & middles, key=order.__getitem__)
            x3 = min(reach([x2], succ.__getitem__) & P, key=order.__getitem__)
            first = (x1, x2, x3)
    return first


def branching_sem_map(f: dict, source: Lts, target: Lts, depth: int,
                      with_stretch: bool = True) -> NatTrans:
    """Lift a map that keeps the step clauses of a branching simulation (it
    needs no stutter clause) to the minimal-execution presheaves, both
    built over one base, as a map of execution trees.

    Each system's tree is walked once (``execution_tree``) and each source
    step imaged once (``_step_images``).  A source node's image is a target
    node: a root's is the root at f of its state; a step that collapses
    keeps its parent's image; any other step goes to the child of its
    parent's image that the mapped step reaches.  The components are the
    target tree's own executions."""
    steps, missing = _step_images(f, source, target)
    if missing is not None:
        raise PreconditionError("not a branching simulation: " + format_witness(missing))
    source_tree = execution_tree(source, depth)
    target_tree = execution_tree(target, depth)
    roots, children = {}, {}
    for j, (q, _, _, _, up) in enumerate(target_tree):
        trace, states = q
        if up is None:
            roots[states[0]] = j
        else:
            children[up, trace[-1], states[-1]] = j
    at, image = [], {}
    for (p, _, _, _, up) in source_tree:
        trace, states = p
        if up is None:
            j = roots[f[states[0]]]
        else:
            mapped = steps[states[-2], trace[-1], states[-1]]
            j = at[up] if mapped is None else children.get((at[up], *mapped))
            if j is None:
                raise InternalCheckError(f"image of {p} missing in the target tree")
        at.append(j)
        image[p] = target_tree[j][0]
    base = _branching_base(_joint_alphabet(source, target), depth, with_stretch)
    FX = _minimal_presheaf(base, source_tree)
    FY = _minimal_presheaf(base, target_tree)
    return nat_trans(FX, FY, lambda e, p: image[p])


def _step_images(f: dict, source: Lts, target: Lts):
    """The step clauses of a branching simulation, stated only here: the
    table of each source step's image under f, None for a silent step whose
    ends f identifies (it collapses), else its label and f of its end; and
    the first step without an image in ``str`` order, tagged ``visible`` or
    ``silent``, or None."""
    check_map_shape(f, source, target)
    moves = target.transitions
    steps, bad = {}, []
    for step in source.transitions:
        src, lab, tgt = step
        cur, img = f[src], f[tgt]
        if lab is TAU and cur == img:
            steps[step] = None
        elif (cur, lab, img) in moves:
            steps[step] = (lab, img)
        else:
            bad.append(step)
    if not bad:
        return steps, None
    step = min(bad, key=str)
    return steps, ("silent" if step[1] is TAU else "visible", step)


__all__ = [
    "base_presheaf",
    "branching_sem",
    "branching_sem_map",
    "branching_simulation_violation",
    "fair_sem",
    "fair_sem_map",
    "fair_simulation_violation",
    "strong_sem",
    "strong_sem_map",
]

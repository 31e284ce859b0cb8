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
  link, back to its last visible step but one, or to its root.

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
from .words import EPSILON, TAU, LassoTrace, StretchPoint, TAU_BAR, Word


def _joint_alphabet(*systems):
    labs = set()
    for s in systems:
        labs |= set(s.alphabet)
    return tuple(sorted(labs))


def _visible_labels(lts: Lts) -> tuple:
    return tuple(sorted(lts.alphabet))


def _map_execution(f: dict, p: Execution) -> Execution:
    return Execution(p.trace, tuple(f[s] for s in p.states))


# ---------------------------------------------------------------------------
# Strong semantics


def _execution_presheaf(base, lts: Lts, depth: int) -> FinPresheaf:
    """The executions of lts up to the depth over a base of words, each at
    its trace; restriction cuts an execution to a prefix."""
    stages = {w: _stage_sorted(ps) for w, ps in executions_up_to(lts, depth).items()}
    return make_presheaf(base, stages, lambda p, frm, to: restrict(p, to))


def strong_sem(lts: Lts, depth: int) -> FinPresheaf:
    """The presheaf of executions over visible words up to the depth."""
    if lts.has_tau:
        raise PreconditionError("strong semantics is for systems without silent steps")
    base = word_poset(_visible_labels(lts), depth)
    return _execution_presheaf(base, lts, depth)


def strong_sem_map(f: dict, source: Lts, target: Lts, depth: int) -> NatTrans:
    """Lift a simulation to the execution presheaves (post-composition), both
    built over one base."""
    ok, witness = is_simulation(f, source, target)
    if not ok:
        raise PreconditionError(f"not a simulation: violates {transition_str(*witness)}")
    if source.has_tau or target.has_tau:
        raise PreconditionError("strong semantics is for systems without silent steps")
    base = word_poset(_joint_alphabet(source, target), depth)
    FX = _execution_presheaf(base, source, depth)
    FY = _execution_presheaf(base, target, depth)
    return nat_trans(FX, FY, lambda e, p: _map_execution(f, p))


# ---------------------------------------------------------------------------
# Fair semantics


def _fair_traces(lassos) -> set:
    return {l.trace() for (l, ok) in lassos if ok}


def _fair_presheaf(base, fl: FairLts, depth: int, lassos) -> FinPresheaf:
    """The fair semantics of fl over a base holding every trace of its fair
    lassos; ``lassos`` are fl's lassos tagged by fairness."""
    by_trace = {}
    for (l, ok) in lassos:
        if ok:
            by_trace.setdefault(l.trace(), []).append(l)
    stages = {e: _stage_sorted(xs) for e, xs in executions_up_to(fl.lts, depth).items()}
    stages.update((e, _stage_sorted(xs)) for e, xs in by_trace.items())

    def act(x, frm, to):
        if isinstance(frm, LassoTrace):
            return x.unroll(len(to))
        return restrict(x, to)

    return make_presheaf(base, stages, act)


def fair_sem(fl: FairLts, depth: int, stem_bound: int = 4, cycle_bound: int = 4) -> FinPresheaf:
    """Execution presheaf extended with one stage per fair-lasso trace.

    An infinite stage holds the canonical fair lassos realizing its trace;
    restriction to a finite word unrolls the lasso.
    """
    lassos = fair_lassos(fl, stem_bound, cycle_bound)
    base = fair_target_poset(_visible_labels(fl.lts), depth, _fair_traces(lassos))
    return _fair_presheaf(base, fl, depth, lassos)


def fair_mismatches(f: dict, target: FairLts, lassos, preserve: bool):
    """The (lasso, canonical image) pairs, in ``str`` order of the source's
    tagged lassos, whose fairness f does not transfer: fair lassos with
    unfair images when ``preserve``, else unfair lassos with fair images."""
    for (lasso, fair) in sorted(lassos, key=lambda lw: str(lw[0])):
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
    source_lassos = fair_lassos(source, stem_bound, cycle_bound)
    target_lassos = fair_lassos(target, stem_bound, cycle_bound)
    traces = _fair_traces(source_lassos) | _fair_traces(target_lassos)
    base = fair_target_poset(_joint_alphabet(source.lts, target.lts), depth, traces)
    FX = _fair_presheaf(base, source, depth, source_lassos)
    FY = _fair_presheaf(base, target, depth, target_lassos)

    def component(e, x):
        if isinstance(e, LassoTrace):
            return x.map_states(f).canonical()
        return _map_execution(f, x)

    return nat_trans(FX, FY, component)


# ---------------------------------------------------------------------------
# Base presheaves for silent-step systems


def base_presheaf(lts: Lts, depth: int, barred: bool = False) -> FinPresheaf:
    """The execution presheaf over words with silent letters; in barred mode
    the base gains the stretch points, whose common stage collects all purely
    silent executions and restricts to the start state at the empty word."""
    labels = _visible_labels(lts) + (TAU,)
    if not barred:
        return _execution_presheaf(word_poset(labels, depth), lts, depth)
    base = barred_source_poset(labels, depth)
    execs = executions_up_to(lts, depth)
    stages = {w: _stage_sorted(ps) for w, ps in execs.items()}
    silent = _stage_sorted(p for w, ps in execs.items() if not w.visible() for p in ps)
    stages.update((StretchPoint(n), silent) for n in range(1, depth + 1))

    def act(x, frm, to):
        if isinstance(frm, StretchPoint):
            if isinstance(to, StretchPoint):
                return x
            return restrict(x, EPSILON)
        return restrict(x, to)

    return make_presheaf(base, stages, act)


# ---------------------------------------------------------------------------
# Branching semantics


def _branching_base(labels, depth: int, with_stretch: bool):
    if with_stretch:
        return branching_target_poset(labels, depth)
    return word_poset(labels, depth)


def _minimal_presheaf(base, lts: Lts, depth: int) -> FinPresheaf:
    """The minimal executions of lts up to the depth over a branching base,
    with the purely silent ones at the stretchable observation if the base
    has it, read off one walk of its execution tree.

    The stage at a visible word rho holds the nodes with visible word rho
    that end in a visible step, the stage at the empty word the roots, and
    the stretch stage the nodes with no visible step.  One ``_by_text`` over
    the kept nodes orders every stage as its own would: a tie anywhere
    breaks every stage by ``repr``, which keeps a tie-free stage's order.
    Each restriction is the anchor link: cutting a minimal execution back
    after its last visible step but one, or a silent one back to its start."""
    stretch = TAU_BAR in base.parent
    named, homes, anchor = [], {}, {}
    for (p, text, rho, up) in execution_tree(lts, depth):
        trace = p.trace
        at = (TAU_BAR,) if stretch and not rho else ()
        if not trace or trace[-1] is not TAU:
            at += (rho,)
        if at:
            named.append((text, p))
            homes[p] = at
            anchor[p] = up
    stages = {}
    for p in _by_text(named):
        for e in homes[p]:
            stages.setdefault(e, []).append(p)
    return make_presheaf(base, stages, lambda x, frm, to: anchor[x])


def branching_sem(lts: Lts, depth: int, with_stretch: bool = True) -> FinPresheaf:
    """The presheaf of minimal executions over visible words.

    With ``with_stretch`` (the correct construction) the base gains the
    stretchable observation above the empty word, whose stage holds all purely
    silent executions; without it one obtains the coarser variant that forgets
    silent steps entirely.
    """
    base = _branching_base(_visible_labels(lts), depth, with_stretch)
    return _minimal_presheaf(base, lts, depth)


def branching_simulation_violation(f: dict, source: Lts, target: Lts):
    """None if f is a branching simulation, else a tagged witness: visible
    steps must map to steps, silent steps must map to steps or collapse, and
    silent stuttering must be respected.  A step witness is the failing step
    first in ``str`` order: the steps are scanned unsorted and ordered only
    when one fails.  A stutter witness is the first (x1, x2, x3) in state
    order with silent runs from x1 to x2 and from x2 to x3, and
    f(x1) = f(x3) != f(x2)."""
    check_map_shape(f, source, target)
    moves = target.transitions
    bad = [(s, lab, t) for (s, lab, t) in source.transitions
           if (f[s], lab, f[t]) not in moves and not (lab is TAU and f[s] == f[t])]
    if bad:
        step = min(bad, key=str)
        return ("silent" if step[1] is TAU else "visible", step)
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
    """Lift a branching simulation to the minimal-execution presheaves, both
    built over one base.  Each source step is imaged once
    (``_step_images``), and every execution's image is read step by step
    from that table."""
    violation = branching_simulation_violation(f, source, target)
    if violation is not None:
        raise PreconditionError("not a branching simulation: " + format_witness(violation))
    steps = _step_images(f, source, target)

    def image(e, p):
        trace, states = p
        letters, images = [], [f[states[0]]]
        for mapped in map(steps.__getitem__, zip(states, trace, states[1:])):
            if mapped is not None:
                letters.append(mapped[0])
                images.append(mapped[1])
        return Execution.trusted((Word(letters), tuple(images)))

    base = _branching_base(_joint_alphabet(source, target), depth, with_stretch)
    FX = _minimal_presheaf(base, source, depth)
    FY = _minimal_presheaf(base, target, depth)
    return nat_trans(FX, FY, image)


def _step_images(f: dict, source: Lts, target: Lts) -> dict:
    """Each source step's image under f: None for a silent step whose ends f
    identifies (it collapses), else its label and f of its end, a target
    step from f of its start.  A missing target step indicates a bug in the
    simulation check, not bad input."""
    steps = {}
    for step in source.transitions:
        src, lab, tgt = step
        cur, img = f[src], f[tgt]
        if lab is TAU and cur == img:
            steps[step] = None
        elif target.has_transition(cur, lab, img):
            steps[step] = (lab, img)
        else:
            raise InternalCheckError(f"image step {cur} -{lab}-> {img} missing in target")
    return steps


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

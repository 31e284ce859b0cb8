"""Labelled transition systems, executions, lassos, fairness, and file ingestion.

Systems carry no initial state: every state is a legitimate starting point and
all executions from all states are first-class.  The silent label is the
``TAU`` sentinel internally and the literal ``tau`` in Aldebaran files; it is
never a member of ``alphabet``.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ParseError, PreconditionError
from .words import EPSILON, TAU, LassoTrace, Word, label_key, label_str, minimal_period


@dataclass(frozen=True)
class Lts:
    """A finite labelled transition system without initial states;
    ``has_tau`` is read off the transitions."""

    states: tuple
    alphabet: frozenset
    transitions: frozenset
    has_tau: bool = field(init=False)

    def __post_init__(self):
        states = set(self.states)
        if len(states) != len(self.states):
            raise PreconditionError("duplicate state identifiers")
        if TAU in self.alphabet:
            raise PreconditionError("the silent label is not part of the alphabet")
        uses_tau = False
        for (src, lab, tgt) in self.transitions:
            if src not in states or tgt not in states:
                raise PreconditionError(f"transition endpoint outside state set: {(src, label_str(lab), tgt)}")
            if lab is TAU:
                uses_tau = True
            elif lab not in self.alphabet:
                raise PreconditionError(f"unknown label {lab!r}")
        object.__setattr__(self, "has_tau", uses_tau)

    @staticmethod
    def make(states, alphabet, transitions) -> "Lts":
        return Lts(tuple(states), frozenset(alphabet), frozenset(transitions))

    def has_transition(self, src, lab, tgt) -> bool:
        return (src, lab, tgt) in self.transitions


def state_key(s):
    """The sort key of a state: states of one type compare as themselves,
    and states of different types never compare, grouped by type name."""
    return (type(s).__name__, s)


def adjacency(lts: Lts) -> dict:
    """state -> tuple of (label, target), by label, then by target in
    ``state_key`` order."""
    adj = {s: [] for s in lts.states}
    for (src, lab, tgt) in lts.transitions:
        adj[src].append((lab, tgt))
    # state_key inline: a call per step is measurable on the strong path
    return {s: tuple(sorted(steps, key=lambda lt: (label_key(lt[0]), type(lt[1]).__name__, lt[1])))
            for s, steps in adj.items()}


def transition_str(src, lab, tgt) -> str:
    return f"{src} -{label_str(lab)}-> {tgt}"


def format_witness(w) -> str:
    """A verdict's witness as text: ``tag: parts`` when it is a pair whose
    first item is a string (a stutter names its silent run), else its parts.
    Parts read no tag: a transition, told by its shape (a label between two
    states, neither a tuple), is ``p -a-> q``, any other tuple its items'
    parts joined by ``; ``, anything else its ``str``."""
    if isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], str):
        if w[0] == "stutter":
            return "stutter: silent run through " + ", ".join(map(str, w[1]))
        return f"{w[0]}: {_witness_parts(w[1])}"
    return _witness_parts(w)


def _witness_parts(w) -> str:
    if not isinstance(w, tuple):
        return str(w)
    if (len(w) == 3 and (isinstance(w[1], str) or w[1] is TAU)
            and not isinstance(w[0], tuple) and not isinstance(w[2], tuple)):
        return transition_str(*w)
    return "; ".join(map(_witness_parts, w))


# ---------------------------------------------------------------------------
# Executions


class Execution(tuple):
    """A finite run: one state per prefix of its trace, held as the pair
    ``(trace, states)``; ``Execution.trusted((trace, states))`` skips the
    shape check, for the constructions where the shape holds by design."""

    __slots__ = ()

    trace = property(itemgetter(0))
    states = property(itemgetter(1))
    trusted = classmethod(tuple.__new__)

    def __new__(cls, trace: Word, states: tuple):
        if len(states) != len(trace) + 1:
            raise PreconditionError("an execution has one state per prefix of its trace")
        return tuple.__new__(cls, (trace, states))

    def __getnewargs__(self):
        return tuple(self)  # copy and pickle call __new__(cls, trace, states)

    @staticmethod
    def empty(state) -> "Execution":
        return Execution(EPSILON, (state,))

    @property
    def start(self):
        return self.states[0]

    @property
    def last(self):
        return self.states[-1]

    def extend(self, label, target) -> "Execution":
        return Execution(self.trace.append(label), self.states + (target,))

    def __repr__(self):
        return f"Execution(trace={self.trace!r}, states={self.states!r})"

    def __str__(self):
        if len(self.states) == 1:
            return str(self.states[0])
        return str(self.states[0]) + "".join(map(_step_text, self.trace, self.states[1:]))


def _step_text(label, target) -> str:
    """One step of an execution's text."""
    return f" -{label_str(label)}-> {target}"


def restrict(p: Execution, prefix: Word) -> Execution:
    """Restrict an execution to a prefix of its trace."""
    if not prefix.is_prefix_of(p.trace):
        raise PreconditionError(f"{prefix} is not a prefix of {p.trace}")
    return Execution(prefix, p.states[: len(prefix) + 1])


def execution_tree(lts: Lts, depth: int) -> list:
    """The executions of trace length <= depth as the nodes of one prefix
    tree, walked once, shortest first; the roots are the empty executions.

    A node is ``(execution, text, visible, anchor, parent)``.  The text is
    ``str(execution)``, the parent's text plus one ``" -a-> s"``; the
    visible word is the trace without its silent letters.  The anchor is the
    position in the returned list of the last node before it on its path
    that is a root (its own, for a root) or ends in a visible step, the
    parent that of the node one step shorter (None for a root).  The roots
    come first, in state order.
    """
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    adj = adjacency(lts)
    steps = {s: [(lab, t, _step_text(lab, t)) for (lab, t) in adj[s]] for s in lts.states}
    level = [(Execution.empty(s), str(s), EPSILON, i, None) for i, s in enumerate(lts.states)]
    trusted = Execution.trusted
    nodes = list(level)
    for _ in range(depth):
        grown = []
        for i, (p, text, visible, anchor, _) in enumerate(level, len(nodes) - len(level)):
            trace, states = p
            if not trace or trace[-1] is not TAU:
                anchor = i
            for (lab, t, step) in steps[states[-1]]:
                grown.append((trusted((Word(trace + (lab,)), states + (t,))), text + step,
                              visible if lab is TAU else Word(visible + (lab,)), anchor, i))
        nodes += grown
        level = grown
    return nodes


def executions_up_to(lts: Lts, depth: int) -> dict:
    """All executions of trace length <= depth, keyed by trace: the nodes of
    ``execution_tree`` grouped.

    Only the words with an execution get a stage, and the empty word, whose
    stage holds one empty execution per state; a missing word has none.
    """
    stages = {EPSILON: []}
    for (p, _, _, _, _) in execution_tree(lts, depth):
        stages.setdefault(p.trace, []).append(p)
    return {w: frozenset(ps) for w, ps in stages.items()}


# ---------------------------------------------------------------------------
# Reachability


def reach(starts, steps) -> set:
    """The nodes that ``steps`` (a node's successors) leads to from the
    starts, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for v in steps(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


# ---------------------------------------------------------------------------
# Lassos and fairness


def _folds(stem: Execution, cycle: tuple) -> bool:
    """Does the stem end with the cycle's last step, taken from the same
    state, so that the step can move into the cycle?  The cycle's last step
    starts where its second-to-last ends, or at the entry state of a one-step
    cycle: ``cycle[len(cycle) - 2]`` covers both."""
    return (bool(stem.trace) and stem.trace[-1] == cycle[-1][0]
            and stem.states[-2] == cycle[len(cycle) - 2][1])


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic infinite run: finite stem plus repeating cycle.

    The cycle is a sequence of (label, target) steps starting from the stem's
    last state; its final target must close back onto that state.
    """

    stem: Execution
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise PreconditionError("a lasso needs a nonempty cycle")
        if self.cycle[-1][1] != self.stem.last:
            raise PreconditionError("cycle must close back onto its entry state")

    @property
    def cycle_states(self) -> frozenset:
        return frozenset(st for (_, st) in self.cycle)

    def state_at(self, i: int):
        k = len(self.stem.trace)
        if i <= k:
            return self.stem.states[i]
        return self.cycle[(i - k - 1) % len(self.cycle)][1]

    def label_at(self, i: int):
        k = len(self.stem.trace)
        if i < k:
            return self.stem.trace[i]
        return self.cycle[(i - k) % len(self.cycle)][0]

    def unroll(self, n: int) -> Execution:
        """The finite execution formed by the first n steps of the run."""
        return Execution(
            Word(self.label_at(i) for i in range(n)),
            tuple(self.state_at(i) for i in range(n + 1)),
        )

    def trace(self):
        return LassoTrace.canonical(
            tuple(self.stem.trace), tuple(lab for (lab, _) in self.cycle)
        )

    def canonical(self) -> "Lasso":
        """Minimal-period cycle, with the stem absorbed into the cycle as far
        as possible (unique representation of the denoted infinite run)."""
        stem, cycle = self.stem, tuple(minimal_period(self.cycle))
        while _folds(stem, cycle):
            stem = Execution(Word(stem.trace[:-1]), stem.states[:-1])
            cycle = cycle[-1:] + cycle[:-1]
        return Lasso(stem, cycle)

    def map_states(self, f) -> "Lasso":
        stem = Execution(self.stem.trace, tuple(f[s] for s in self.stem.states))
        return Lasso(stem, tuple((lab, f[st]) for (lab, st) in self.cycle))

    def __str__(self):
        loop = " ".join(f"-{label_str(lab)}-> {st}" for (lab, st) in self.cycle)
        return f"{self.stem} (loop: {loop})"


@dataclass(frozen=True)
class StreettSpec:
    """Fairness by pairs (L, U): a run meeting L infinitely often must meet U
    infinitely often.  On a lasso only the cycle states recur."""

    pairs: tuple

    def is_fair(self, lasso: Lasso) -> bool:
        cyc = lasso.cycle_states
        return all(not (cyc & L) or (cyc & U) for (L, U) in self.pairs)

    def states_mentioned(self):
        out = set()
        for (L, U) in self.pairs:
            out |= set(L) | set(U)
        return out


@dataclass(frozen=True)
class AlwaysAfterSpec:
    """Fairness by a positional safety condition: along runs whose trace starts
    with ``gate``, every state from position ``offset`` onwards must lie in
    ``allowed``.  Runs not matching the gate are unconstrained (fair)."""

    offset: int
    allowed: frozenset
    gate: tuple = ()

    def is_fair(self, lasso: Lasso) -> bool:
        g = len(self.gate)
        if tuple(lasso.label_at(i) for i in range(g)) != tuple(self.gate):
            return True
        stem_len = len(lasso.stem.trace)
        for i in range(self.offset, stem_len + 1):
            if lasso.stem.states[i] not in self.allowed:
                return False
        return all(st in self.allowed for st in lasso.cycle_states)

    def states_mentioned(self):
        return set(self.allowed)


@dataclass(frozen=True)
class FairLts:
    """A silent-step-free transition system with a fairness condition on
    infinite runs."""

    lts: Lts
    fairness: object

    def __post_init__(self):
        if self.lts.has_tau:
            raise PreconditionError("fair systems carry no silent steps")
        mentioned = getattr(self.fairness, "states_mentioned", lambda: set())()
        unknown = set(mentioned) - set(self.lts.states)
        if unknown:
            raise PreconditionError(f"fairness mentions unknown states: {sorted(unknown, key=state_key)}")


def enumerate_graph_lassos(nodes, adj, stem_bound: int, cycle_bound: int):
    """Yield all canonical lassos of a labelled graph with raw stem length
    <= stem_bound and raw cycle length <= cycle_bound, shorter stems first,
    so that a search can stop at its first witness.  Each is yielded once,
    from its canonical (stem, cycle) pair: cycles of minimal period, and no
    stem that folds into its cycle (``_folds``); a pair that folds denotes
    the run of a pair with a shorter stem."""
    if cycle_bound < 1:
        raise PreconditionError("cycle bound must be >= 1")
    if stem_bound < 0:
        raise PreconditionError("stem bound must be >= 0")

    cycles_from = {}

    def cycles_at(entry):
        if entry in cycles_from:
            return cycles_from[entry]
        # depth-first over one open path, each cycle recorded when its last
        # step is taken; the stack holds the untried steps at each state of
        # the path.  A cycle is kept when it is its own minimal period, the
        # rule of ``Lasso.canonical``: a power of a shorter cycle is dropped.
        found = []
        path = []
        stack = [iter(adj[entry])]
        while stack:
            for step in stack[-1]:
                path.append(step)
                if step[1] == entry and len(minimal_period(path)) == len(path):
                    found.append(tuple(path))
                if len(path) < cycle_bound:
                    stack.append(iter(adj[step[1]]))
                    break
                path.pop()
            else:
                stack.pop()
                if path:
                    path.pop()
        cycles_from[entry] = found
        return found

    stems = [Execution.empty(s) for s in nodes]
    for _ in range(stem_bound + 1):
        nxt = []
        for stem in stems:
            yield from (Lasso(stem, cyc) for cyc in cycles_at(stem.last)
                        if not _folds(stem, cyc))
            for (lab, tgt) in adj[stem.last]:
                if len(stem.trace) < stem_bound:
                    nxt.append(stem.extend(lab, tgt))
        stems = nxt


def fair_lassos(fl: FairLts, stem_bound: int, cycle_bound: int) -> tuple:
    """All canonical lassos within the bounds in ``str`` order, ties in the
    order of enumeration, each tagged by its fairness verdict under the
    system's fairness condition."""
    adj = adjacency(fl.lts)
    lassos = sorted(enumerate_graph_lassos(fl.lts.states, adj, stem_bound, cycle_bound), key=str)
    return tuple((l, fl.fairness.is_fair(l)) for l in lassos)


# ---------------------------------------------------------------------------
# Simulation functions


def check_map_shape(f: dict, source: Lts, target: Lts):
    """Raise unless f maps every source state to a target state and the
    source's alphabet lies inside the target's."""
    missing = set(source.states) - set(f)
    if missing:
        raise PreconditionError(f"map not total: missing {sorted(missing, key=state_key)}")
    bad_imgs = {f[s] for s in source.states} - set(target.states)
    if bad_imgs:
        raise PreconditionError(f"map image outside target states: {sorted(bad_imgs, key=state_key)}")
    if not source.alphabet <= target.alphabet:
        raise PreconditionError("alphabets incompatible")


def is_simulation(f: dict, source: Lts, target: Lts):
    """Check that the state map carries every transition to a transition.

    Returns (True, None) or (False, violating transition), the least by
    label, then source and target in ``state_key`` order.
    """
    check_map_shape(f, source, target)
    moves = target.transitions
    bad = [(src, lab, tgt) for (src, lab, tgt) in source.transitions
           if (f[src], lab, f[tgt]) not in moves]
    if not bad:
        return True, None
    # state_key inline, as in adjacency: a call per failing step is
    # measurable where many candidate maps are screened
    return False, min(bad, key=lambda t: (label_key(t[1]), type(t[0]).__name__, t[0],
                                          type(t[2]).__name__, t[2]))


# ---------------------------------------------------------------------------
# File formats


def _rows(text: str) -> list:
    """The lines of a text file, stripped, without blank and ``#`` lines."""
    return [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]


_HEADER_RE = re.compile(r"^\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_EDGE_RE = re.compile(r'^\s*\(\s*(\d+)\s*,\s*(?:"([^"]*)"|([^,"]+?))\s*,\s*(\d+)\s*\)\s*$')


def parse_aut(text: str, names=None) -> Lts:
    """Parse an Aldebaran description.

    The header is ``des (i, t, s)`` with the first field ignored (systems have
    no initial states), ``t`` the transition count and ``s`` the state count.
    The literal label ``tau`` is the silent action.  Duplicate transitions are
    dropped with a warning.  With ``names``, state i is renamed names[i].
    """
    lines = _rows(text)
    if not lines:
        raise ParseError("empty model file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"malformed header: {lines[0]!r}")
    _, tcount, scount = (int(g) for g in m.groups())
    body = lines[1:]
    if len(body) != tcount:
        raise ParseError(f"header announces {tcount} transitions, found {len(body)}")
    if names is not None:
        if len(names) != scount:
            raise ParseError(f"{scount} states but {len(names)} names")
        state_ids = tuple(names)
        named = set()
        for name in state_ids:
            if name in named:
                raise ParseError(f"state name {name!r} given twice")
            named.add(name)
    else:
        state_ids = tuple(str(i) for i in range(scount))

    transitions = []
    seen = set()
    alphabet = set()
    for ln in body:
        em = _EDGE_RE.match(ln)
        if not em:
            raise ParseError(f"malformed transition line: {ln!r}")
        src, quoted, bare, tgt = em.groups()
        src, tgt = int(src), int(tgt)
        raw_label = quoted if quoted is not None else bare.strip()
        if src >= scount or tgt >= scount:
            raise ParseError(f"state index out of range in: {ln!r}")
        label = TAU if raw_label == "tau" else raw_label
        if label is not TAU:
            alphabet.add(label)
        triple = (state_ids[src], label, state_ids[tgt])
        if triple in seen:
            warnings.warn(f"duplicate transition {transition_str(*triple)} dropped")
            continue
        seen.add(triple)
        transitions.append(triple)
    return Lts.make(state_ids, alphabet, transitions)


def serialize_aut(lts: Lts) -> str:
    """Canonical Aldebaran text; inverse of parse_aut on canonical files."""
    index = {s: i for i, s in enumerate(lts.states)}
    rows = sorted(
        (index[src], label_str(lab), index[tgt]) for (src, lab, tgt) in lts.transitions
    )
    lines = [f"des (0, {len(rows)}, {len(lts.states)})"]
    lines.extend(f'({src},"{lab}",{tgt})' for (src, lab, tgt) in rows)
    return "\n".join(lines) + "\n"


def parse_names(text: str) -> tuple:
    return tuple(_rows(text))


def parse_fairness(text: str, lts: Lts):
    """Parse a fairness sidecar (JSON) against a system's state names."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad fairness sidecar: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("bad fairness sidecar: not a JSON object")
    names = doc.get("names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError("fairness names must be a list of strings")
        rename = {str(i): n for i, n in enumerate(names)}
        resolve = lambda s: rename.get(s, s)  # noqa: E731
    else:
        resolve = lambda s: s  # noqa: E731
    known = set(lts.states)

    def states_of(items):
        if not isinstance(items, list):
            raise ParseError(f"fairness state set must be a list, got {items!r}")
        out = []
        for s in items:
            s = resolve(s) if isinstance(s, str) else s
            if not isinstance(s, str) or s not in known:
                raise ParseError(f"fairness mentions unknown state {s!r}")
            out.append(s)
        return frozenset(out)

    kind = doc.get("kind")
    if kind == "streett":
        pairs = doc.get("pairs", [])
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise ParseError("streett pairs must be a list of [L, U] lists")
        return StreettSpec(tuple((states_of(L), states_of(U)) for (L, U) in pairs))
    if kind == "always_after":
        offset = doc.get("offset")
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ParseError(f"always_after offset must be an integer >= 0, got {offset!r}")
        gate = doc.get("gate", [])
        if not isinstance(gate, list) or not all(isinstance(lab, str) for lab in gate):
            raise ParseError(f"always_after gate must be a list of labels, got {gate!r}")
        return AlwaysAfterSpec(offset, states_of(doc.get("states")), tuple(gate))
    raise ParseError(f"unknown fairness kind {kind!r}")


def parse_state_map(text: str, source: Lts, target: Lts, total: bool = True) -> dict:
    """Parse ``a -> b`` lines into a state map (total over source by default)."""
    f = {}
    sources, targets = set(source.states), set(target.states)
    for ln in _rows(text):
        if "->" not in ln:
            raise ParseError(f"malformed map line: {ln!r}")
        left, right = (part.strip() for part in ln.split("->", 1))
        if left not in sources:
            raise ParseError(f"unknown source state {left!r}")
        if right not in targets:
            raise ParseError(f"unknown target state {right!r}")
        if left in f and f[left] != right:
            raise ParseError(f"conflicting images for {left!r}")
        f[left] = right
    if total:
        missing = sources - set(f)
        if missing:
            raise ParseError(f"map not total: missing {sorted(missing)}")
    return f


def parse_relation_pairs(text: str, lts: Lts) -> frozenset:
    """Parse ``a ~ b`` lines into a set of ordered state pairs."""
    pairs = set()
    known = set(lts.states)
    for ln in _rows(text):
        if "~" not in ln:
            raise ParseError(f"malformed relation line: {ln!r}")
        left, right = (part.strip() for part in ln.split("~", 1))
        if left not in known or right not in known:
            raise ParseError(f"unknown state in relation line: {ln!r}")
        pairs.add((left, right))
    return frozenset(pairs)

"""Finite presheaves over finite forests, and the decision of a bisimulation
map by diagonal fillers.

Every base built here is a forest: each element covers at most one element,
its parent (a word covers its longest proper prefix, ``tau_bar`` the empty
word, a stretch point the one before it, a lasso trace its longest prefix),
so every down-set is a chain.  A poset stores only the parent links and
computes its down-sets from them at construction; the last branching target
base built is shared by the lifts over its label set and depth.  A presheaf
is stored as its category of elements (Mac Lane & Moerdijk, I.5), a forest
too: its elements are ints, its nonempty stages list them, and one parent
array gives each one's restriction to the stage below, whose composites are
the other restrictions.  A natural transformation is one array of ints, its
fibers indexed at construction.  Nothing is filled in later, so a built
object can be shared between threads.

The squares that ``enumerate_mono_squares`` streams have a Q generated by one
element, so by Yoneda a filler is fixed by its value at that generator; over
a forest, a square with two generators is filled as soon as the stream's
squares are.  ``is_bisim_map_bounded`` therefore decides every square from
its generator (``StreamSquare.has_filler``) and builds no square at all: the
stream walks each target element and its preimages down the two parent
arrays once and hands every square the set at its own stage, so a decision
is one look-up among ints.  A refusal returns the failing ``StreamSquare``,
whose text names its family and generators.  Verdicts and witnesses are
reproducible.

``find_filler`` is the generic diagonal-filler search, exhaustive over a
fixed deterministic order, for any square.  The library does not call it: the
tests hold the generator decision to it, and build and check the full mono
squares it searches (``tests/oracles.py``).  It stays in this module because
the traced benchmark patches it under this name (``benchmark/tracing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import PreconditionError
from .words import (
    EPSILON,
    TAU,
    TAU_BAR,
    LassoTrace,
    StretchPoint,
    Word,
    element_key,
    label_key,
)

# ---------------------------------------------------------------------------
# Posets


@dataclass(frozen=True)
class FinPoset:
    """A finite forest: ``parent`` maps each element to the one element it
    covers, or to None for a root, and ``elements`` lists them, in
    ``element_key`` order wherever that key applies.

    Every down-set is the chain of parents from an element to its root.  The
    down-sets, each element's position and the longest word's length
    (``word_budget``) are computed at construction, so parent links that form
    a cycle are refused there."""

    elements: tuple
    parent: dict

    def __post_init__(self):
        # set here, not in cached properties: on Python 3.11 the first read of
        # one takes a lock, which made a depth-1 strong map check about 2% slower
        down = {None: ()}
        for e in self.elements:
            # climb to an element already done, then fill the path back down
            path = []
            while e not in down:
                path.append(e)
                e = self.parent[e]
                if len(path) > len(self.elements):
                    raise PreconditionError("the parent links form a cycle")
            for x in reversed(path):
                down[x] = down[e] + (x,)
                e = x
        del down[None]
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_position", {e: i for i, e in enumerate(self.elements)})
        object.__setattr__(self, "word_budget", max(
            (len(e) for e in self.elements if isinstance(e, Word)), default=0))

    def down(self, e) -> tuple:
        """The elements below e, from its root up to e itself."""
        return self._down.get(e, ())


def _prefix_poset(labels, depth, extras=(), parent=None) -> FinPoset:
    """All words over the labels up to the depth plus the extra elements, in
    ``element_key`` order.

    A word's parent is its longest proper prefix, an extra's is
    ``parent(extra)``, an element that sorts before it.  The words are built
    level by level from their parents, so they come out in key order."""
    parents = {EPSILON: None}
    frontier = [EPSILON]
    labels = sorted(set(labels), key=label_key)
    for _ in range(depth):
        grown = []
        for w in frontier:
            for l in labels:
                u = w.append(l)
                parents[u] = w
                grown.append(u)
        frontier = grown
    for e in sorted(extras, key=element_key):
        parents[e] = parent(e)
    return FinPoset(tuple(parents), parents)


def word_poset(labels, depth: int) -> FinPoset:
    """All words over the labels up to the depth, prefix-ordered."""
    return _prefix_poset(labels, depth)


def barred_source_poset(labels, depth: int) -> FinPoset:
    """Words over the labels plus one stretch point per positive tick; only
    the empty word sits below the stretch points."""

    def parent(sp):
        return StretchPoint(sp.tick - 1) if sp.tick > 1 else EPSILON

    stretch = [StretchPoint(n) for n in range(1, depth + 1)]
    return _prefix_poset(labels, depth, stretch, parent)


def branching_target_poset(labels, depth: int) -> FinPoset:
    """Visible words up to the depth plus the stretchable observation, which
    sits above exactly the empty word.

    The base depends only on the set of labels and the depth, so the last
    one built, down-sets included, serves every later call with the same
    ones; nothing changes a poset once built."""
    labels = frozenset(labels)
    if TAU in labels:
        raise PreconditionError("target poset is over visible labels only")
    return _branching_target_poset(labels, depth)


# Only the last base is kept: in the measured uses every lift of a process is
# over one label set and depth (the 192 lifts of the branching-maps workload
# build one base; a ``bisimap`` command lifts once).
@lru_cache(maxsize=1)
def _branching_target_poset(labels: frozenset, depth: int) -> FinPoset:
    return _prefix_poset(labels, depth, [TAU_BAR], lambda e: EPSILON)


def fair_target_poset(labels, depth: int, traces) -> FinPoset:
    """Visible words up to the depth plus one point per ultimately periodic
    trace, each sitting above its finite prefixes."""
    labels = set(labels)

    def parent(trace):
        n = 0
        while n < depth and trace.label_at(n) in labels:
            n += 1
        return trace.word_prefix(n)

    return _prefix_poset(labels, depth, set(traces), parent)


# ---------------------------------------------------------------------------
# Presheaves and natural transformations


def _by_text(named) -> list:
    """``(text, element, ...)`` tuples in the stage order of their elements,
    by ``(text, repr(element))``: by text alone, unless two texts tie."""
    named = sorted(named, key=itemgetter(0))
    if any(a[0] == b[0] for a, b in zip(named, named[1:])):
        named.sort(key=lambda tx: (tx[0], repr(tx[1])))
    return named


def _stage_sorted(xs) -> tuple:
    """The elements in stage order, each printed by ``str``."""
    xs = tuple(xs)
    if len(xs) < 2:
        return xs
    return tuple(x for _, x in _by_text(zip(map(str, xs), xs)))


@dataclass(frozen=True)
class FinPresheaf:
    """A presheaf as its category of elements: an element is an int x in one
    stage, printed as ``elements[x]``.  ``stages`` lists the nonempty stages'
    elements, in base order and stage order; ``stage`` reads a missing one as
    empty.  ``parent[x]`` is x restricted to its stage's parent (unread at a
    root stage).  An int in no stage is unused."""

    base: FinPoset
    elements: list
    stages: dict
    parent: list

    def stage(self, e) -> tuple:
        return self.stages.get(e, ())

    def restrict(self, x, frm, to):
        """x at frm restricted to ``to`` below it, parent by parent."""
        down = self.base.down(frm)
        if to not in down:
            raise PreconditionError(f"{to} is not below {frm}")
        for _ in down[down.index(to) + 1:]:
            x = self.parent[x]
        return x

    def total_elements(self) -> int:
        return sum(len(s) for s in self.stages.values())


def make_presheaf(base: FinPoset, stages: dict, restrict_to, elements=None) -> FinPresheaf:
    """Materialize a presheaf from its stages, a dict from base elements to
    stages in stage order (``_by_text``); only the nonempty ones are kept, in
    base order, and a key outside the base is refused.  With ``elements``
    the stages hold ints into it and ``restrict_to`` is their parent array.
    Otherwise they hold the printed elements, numbered here stage by stage,
    and ``restrict_to(x, frm, to)`` is a functorial rule, asked only along
    cover edges; a value outside the lower stage is refused."""
    position = base._position
    if not stages.keys() <= position.keys():
        e = next(e for e in stages if e not in position)
        raise PreconditionError(f"{e} is not an element of the base")
    kept = sorted(filter(stages.get, stages), key=position.__getitem__)
    if elements is not None:
        return FinPresheaf(base, elements, {e: tuple(stages[e]) for e in kept}, restrict_to)
    elements, numbered = [], {}
    for e in kept:
        numbered[e] = range(len(elements), len(elements) + len(stages[e]))
        elements += stages[e]
    parent, index = [], {}  # index: a lower stage's printed elements to their ints
    for hi in kept:
        lo = base.parent[hi]
        if lo is None:
            parent += [None] * len(numbered[hi])
            continue
        lower = index.get(lo)
        if lower is None:
            lower = index[lo] = dict(zip(stages.get(lo, ()), numbered.get(lo, ())))
        for x in stages[hi]:
            y = lower.get(restrict_to(x, hi, lo))
            if y is None:
                raise PreconditionError(f"restriction of {x} from {hi} to {lo} leaves its stage")
            parent.append(y)
    return FinPresheaf(base, elements, numbered, parent)


@dataclass(frozen=True)
class NatTrans:
    """A natural transformation as one array: ``at[x]`` is the target element
    that the source element x goes to, in x's stage.  The fibers of each
    source stage are indexed at construction."""

    source: FinPresheaf
    target: FinPresheaf
    at: list

    def __post_init__(self):
        at = self.at
        fibers = {}
        for e, xs in self.source.stages.items():
            fib = fibers[e] = {}
            for x in xs:
                fib.setdefault(at[x], []).append(x)
        object.__setattr__(self, "_fibers", fibers)

    def fiber(self, e, y) -> list:
        """The elements of the source stage at e mapped to y, in stage order;
        a missing stage reads as empty."""
        fib = self._fibers.get(e)
        return [] if fib is None else fib.get(y, [])


def nat_trans(source: FinPresheaf, target: FinPresheaf, component) -> NatTrans:
    """Each source element, printed x at e, goes to the target element printed
    ``component(e, x)`` at e; one outside the target stage is refused."""
    at, printed = [None] * len(source.elements), source.elements
    for e, xs in source.stages.items():
        index = {target.elements[y]: y for y in target.stage(e)}
        for x in xs:
            at[x] = index.get(component(e, printed[x]))
            if at[x] is None:
                raise PreconditionError(f"image of {printed[x]} at {e} leaves the target stage")
    return NatTrans(source, target, at)


# ---------------------------------------------------------------------------
# Squares: the generic filler search, the stream and its decision


def find_filler(square):
    """Search for k: Q -> F with k.g = m and f.k = n in a square given by its
    legs g: P -> Q, m: P -> F, n: Q -> G and f: F -> G.

    The search is exhaustive backtracking over stage functions, constrained by
    naturality and the two triangle identities, visiting stages and elements in
    a fixed deterministic order; it returns the first filler found or None.
    Stages come parents first, so naturality is checked along parents alone.
    It checks neither the square nor the filler: ``tests/oracles.py`` wraps it
    with both checks and holds ``StreamSquare.has_filler`` to it.
    """
    g, m, n, f = square.g, square.m, square.n, square.f
    Q, F = g.target, f.source
    base = Q.base

    forced = {g.at[p]: m.at[p] for ps in g.source.stages.values() for p in ps}

    slots = [(e, q) for e, qs in Q.stages.items() for q in qs]
    assign = {}

    def candidates(e, q):
        opts = [forced[q]] if q in forced else f.fiber(e, n.at[q])
        if base.parent[e] is None:
            return opts
        return [v for v in opts if assign[Q.parent[q]] == F.parent[v]]

    def search(i):
        if i == len(slots):
            return True
        e, q = slots[i]
        for v in candidates(e, q):
            assign[q] = v
            if search(i + 1):
                return True
            del assign[q]
        return False

    if not search(0):
        return None
    return NatTrans(Q, F, [assign.get(q) for q in range(len(Q.elements))])


class StreamSquare:
    """A square of ``enumerate_mono_squares``, held as its generators.

    ``family`` and ``about``, (e, w) or (e, w, e2, x) with w a target and x a
    source element, fix the square over f; its text is ``<family> square
    [<about items, printed, comma-separated>]``.  ``lifts`` holds the
    candidates for the filler's value that the stream carries: for a
    ``fiber`` square the preimages of w at e, otherwise their restrictions
    to e2.
    """

    __slots__ = ("f", "family", "about", "lifts")

    def __init__(self, f: NatTrans, family: str, about: tuple, lifts):
        self.f = f
        self.family = family
        self.about = about
        self.lifts = lifts

    def __str__(self):
        e, w, *below = self.about
        items = [e, self.f.target.elements[w]]
        if below:
            items += [below[0], self.f.source.elements[below[1]]]
        return f"{self.family} square [{', '.join(map(str, items))}]"

    def has_filler(self) -> bool:
        """Decide the square at its generator, without building it.

        Q is generated by one element, so by Yoneda a filler is fixed by its
        value there: for ``fiber`` any preimage v of w at e will do; for
        ``extension`` and ``chain-limit`` a preimage that restricts to x at
        e2, that is, x must be one of the carried restrictions.  The answer
        is the one ``find_filler`` gives on the full square.
        """
        if self.family == "fiber":
            return bool(self.lifts)
        return self.about[3] in self.lifts


def enumerate_mono_squares(f: NatTrans):
    """A deterministic stream of commuting mono squares over f.  In each, Q is
    the history chain of one target element w at e:

    * ``fiber``: P is empty -- a filler is a coherent preimage, so these test
      stage surjectivity;
    * ``extension``: P is the history chain of a source element x at a stage
      e2 below e, matching the restriction of w -- a filler extends the
      matched part (when e is a limit point and e2 its greatest prefix, this
      is the prefix-chain square of an infinite run, tagged ``chain-limit``).

    Every base is a forest (word prefixes, ``tau_bar`` above the empty word,
    stretch points in a chain and each lasso trace above its longest prefix),
    so every down-set is a chain.  Over such a base a square whose Q has two
    generators (e1, w1) and (e2, w2) is filled once the stream's squares are
    (path lifting, as in Joyal, Nielsen & Winskel, Inf. & Comput. 1996):

    1. lift w1 to v1;
    2. the stages where w1 and w2 agree form a chain; let m be its top;
    3. name the generators so that e2 is not the longer word (or is no word
       at all).  The extension square (e2, w2, m, v1|m) is then never beyond
       the word budget, and its filler agrees with v1 on that whole chain.

    Extension squares whose shortest conceivable filler already overflows the
    base's word-length budget are dropped: they are unfillable for every map
    (the anchor's trace plus the missing visible letters exceeds the
    truncation), so a failure there would reflect the depth, not f.  For
    word stages e and e2 that is one limit on the length of x's trace.  The
    budget is the base's longest word, whatever words the stages reach.

    The items are ``StreamSquare``s: the stream computes only their ``about``
    data, from the base's down-sets and f's fiber index, and builds no
    presheaf.  For each (e, w) it walks w and the preimages of w down the
    chain below e once, through the two parent arrays, and each square
    carries the set of preimage restrictions at its own e2 (``lifts``).
    """
    F, G = f.source, f.target
    base = G.base
    word_budget = base.word_budget
    fiber = f.fiber
    source_parent, target_parent, printed = F.parent.__getitem__, G.parent, F.elements

    def trace_limit(e, e2):
        """The longest trace of an x at e2 whose square under e stays within
        the word budget, or None for no limit."""
        if not (isinstance(e, Word) and isinstance(e2, Word)):
            return None
        return word_budget - (len(e) - len(e2))

    for e, stage in G.stages.items():
        chain = base.down(e)[::-1]
        below = range(len(chain) - 1)
        top_family = "chain-limit" if isinstance(e, LassoTrace) else "extension"
        levels = [(i, chain[i], top_family if i == 1 else "extension", trace_limit(e, chain[i]))
                  for i in range(len(chain) - 1, 0, -1)]
        for w in stage:
            preimages = fiber(e, w)
            yield StreamSquare(f, "fiber", (e, w), preimages)
            history, lifts = [w], [preimages]
            for _ in below:
                history.append(target_parent[history[-1]])
                lifts.append(set(map(source_parent, lifts[-1])))
            for (i, e2, family, limit) in levels:
                for x in fiber(e2, history[i]):
                    if limit is None or len(printed[x].trace) <= limit:
                        yield StreamSquare(f, family, (e, w, e2, x), lifts[i])


def is_bisim_map_bounded(f: NatTrans):
    """Decide every square of the enumerated stream at its generator.

    Each square is decided by ``StreamSquare.has_filler``, a look-up in the
    preimages or preimage restrictions the stream carries with it, and no
    square is built: the first one without a filler is returned as the
    witness, a ``StreamSquare``.  The generic ``find_filler`` agrees on
    every square (the tests hold the two together).

    A ``False`` verdict is definitive for the truncated semantics: the witness
    square has no filler at this depth.  A ``True`` verdict certifies the
    stream's squares at this depth and with them the squares whose Q has two
    generators and whose P is empty (see ``enumerate_mono_squares``).  For
    strong maps the stream saturates at depth 1, so the verdict at depth 1
    is the verdict at every depth (see ``check_bisim_map``).  In the
    branching and fair modes the verdict can differ from the concrete
    characterization, so exact verdicts come from the concrete checks.
    Returns (verdict, witness square or None).
    """
    for square in enumerate_mono_squares(f):
        if not square.has_filler():
            return False, square
    return True, None


# ---------------------------------------------------------------------------
# Debug dump


def dump_presheaf(F: FinPresheaf) -> str:
    """Stable textual dump: one line per stage, one per restriction entry."""
    lines, printed = [], F.elements
    for e in F.base.elements:
        inner = ", ".join(str(printed[x]) for x in F.stage(e))
        lines.append(f"stage {e}: {{{inner}}}")
    for hi in F.base.elements:
        for lo in F.base.down(hi)[:-1]:
            for x in F.stage(hi):
                lines.append(f"res {hi} -> {lo}: {printed[x]} |-> {printed[F.restrict(x, hi, lo)]}")
    return "\n".join(lines) + "\n"

"""Finite presheaves over finite forests, and the decision of a bisimulation
map by diagonal fillers.

Every base built here is a forest: each element covers at most one element,
its parent (a word covers its longest proper prefix, ``tau_bar`` the empty
word, a stretch point the one before it, a lasso trace its longest prefix),
so every down-set is a chain.  A poset stores only the parent links and
computes its down-sets from them at construction; the last branching target
base built is shared by the lifts over its label set and depth.  A presheaf
stores only its nonempty stages, so its size is that of its elements, not of
its base.  Restriction tables are stored only along the parent links; every
other restriction is their composite, as functoriality forces.  Each natural
transformation indexes its fibers, stage by stage, at construction.  Nothing
is filled in later, so a built object can be shared between threads.

The squares that ``enumerate_mono_squares`` streams have a Q generated by one
element, so by Yoneda a filler is fixed by its value at that generator; over
a forest, a square with two generators is filled as soon as the stream's
squares are.  ``is_bisim_map_bounded`` therefore decides every square from
its generator (``StreamSquare.has_filler``) and builds no square at all: the
stream walks the preimages of each target element down its chain of
restrictions once and hands every square the set at its own stage, so a
decision is one look-up.  A refusal returns the failing ``StreamSquare``,
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
    a cycle are refused there; the strict down-sets are read off the
    down-sets."""

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

    def strictly_below(self, e) -> tuple:
        """The elements strictly below e, from its root up."""
        return self._down.get(e, ())[:-1]


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
    """Stage sets indexed by poset elements, with a restriction table
    ``res[hi]`` from hi to its parent for each non-root hi whose stage is
    nonempty.  ``stages`` holds the nonempty stages only, in base order;
    ``stage`` reads a missing one as empty.  Every other restriction is the
    composite of tables down the parent links (identities are implicit)."""

    base: FinPoset
    stages: dict
    res: dict

    def stage(self, e) -> tuple:
        return self.stages.get(e, ())

    def restrict(self, x, frm, to):
        """x at frm restricted to ``to`` below it, table by table down the
        parent links."""
        parent = self.base.parent
        while frm != to:
            lo = parent.get(frm)
            if lo is None:
                raise PreconditionError(f"{to} is not below {frm}")
            x = self.res[frm][x]
            frm = lo
        return x

    def total_elements(self) -> int:
        return sum(len(s) for s in self.stages.values())


def _cover_tables(base: FinPoset, stages: dict, rule) -> dict:
    """The restriction tables along the cover edges below each nonempty
    stage, each value asked of ``rule(x, frm, to)`` and checked to lie in
    the lower stage."""
    res = {}
    lower = {}
    for hi, xs in stages.items():
        lo = base.parent[hi]
        if lo is None:
            continue
        lo_stage = lower.get(lo)
        if lo_stage is None:
            lo_stage = lower[lo] = set(stages.get(lo, ()))
        table = {}
        for x in xs:
            y = rule(x, hi, lo)
            if y not in lo_stage:
                raise PreconditionError(
                    f"restriction of {x} from {hi} to {lo} leaves its stage"
                )
            table[x] = y
        res[hi] = table
    return res


def make_presheaf(base: FinPoset, stages: dict, restrict_to) -> FinPresheaf:
    """Materialize a presheaf from its stages, a dict from base elements to
    stages, and a restriction rule ``restrict_to(x, frm, to)``.

    Each stage keeps the order it is given in; the library's constructions
    give stage order (``_by_text``).  Only the nonempty stages are stored, in
    base order, and a key outside the base is refused.  The rule is asked
    only along the cover edges (``to`` a cover of frm); ``FinPresheaf.restrict``
    composes the rest, so the rule is assumed to be functorial."""
    position = base._position
    if not stages.keys() <= position.keys():
        e = next(e for e in stages if e not in position)
        raise PreconditionError(f"{e} is not an element of the base")
    kept = sorted(filter(stages.get, stages), key=position.__getitem__)
    stages = {e: tuple(stages[e]) for e in kept}
    return FinPresheaf(base, stages, _cover_tables(base, stages, restrict_to))


@dataclass(frozen=True)
class NatTrans:
    """Components ``comp[e][x]`` from the source stage at e to the target
    stage at e, one table per nonempty source stage, with the fibers of each
    table indexed at construction."""

    source: FinPresheaf
    target: FinPresheaf
    comp: dict

    def __post_init__(self):
        fibers = {}
        for e, table in self.comp.items():
            fib = fibers[e] = {}
            for x, image in table.items():
                fib.setdefault(image, []).append(x)
        object.__setattr__(self, "_fibers", fibers)

    def at(self, e, x):
        return self.comp[e][x]

    def fiber(self, e, y) -> list:
        """The elements of the source stage at e mapped to y, in stage order
        (the order of ``comp[e]``); a missing stage reads as empty."""
        fib = self._fibers.get(e)
        return [] if fib is None else fib.get(y, [])


def nat_trans(source: FinPresheaf, target: FinPresheaf, component) -> NatTrans:
    comp = {e: {x: component(e, x) for x in xs} for e, xs in source.stages.items()}
    return NatTrans(source, target, comp)


# ---------------------------------------------------------------------------
# Squares: the generic filler search, the stream and its decision


def find_filler(square):
    """Search for k: Q -> F with k.g = m and f.k = n in a square given by its
    legs g: P -> Q, m: P -> F, n: Q -> G and f: F -> G.

    The search is exhaustive backtracking over stage functions, constrained by
    naturality and the two triangle identities, visiting stages and elements in
    a fixed deterministic order; it returns the first filler found or None.
    It checks neither the square nor the filler: ``tests/oracles.py`` wraps it
    with both checks and holds ``StreamSquare.has_filler`` to it.
    """
    g, m, n, f = square.g, square.m, square.n, square.f
    Q, F = g.target, f.source
    base = Q.base

    forced = {e: {g.at(e, p): m.at(e, p) for p in ps} for e, ps in g.source.stages.items()}

    slots = [(e, q) for e, qs in Q.stages.items() for q in qs]
    assign = {}

    def candidates(e, q):
        if q in forced.get(e, ()):
            opts = [forced[e][q]]
        else:
            opts = f.fiber(e, n.at(e, q))
        return [v for v in opts
                if all(assign[(lo, Q.restrict(q, e, lo))] == F.restrict(v, e, lo)
                       for lo in base.strictly_below(e))]

    def search(i):
        if i == len(slots):
            return True
        e, q = slots[i]
        for v in candidates(e, q):
            assign[(e, q)] = v
            if search(i + 1):
                return True
            del assign[(e, q)]
        return False

    if not search(0):
        return None
    return NatTrans(Q, F, {e: {q: assign[(e, q)] for q in Q.stage(e)} for e in Q.stages})


class StreamSquare:
    """A square of ``enumerate_mono_squares``, held as its generators.

    ``family`` and ``about`` fix the square over f; its text is
    ``<family> square [<about items, comma-separated>]``.  ``lifts`` holds
    the candidates for the filler's value that the stream carries: for a
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
        return f"{self.family} square [{', '.join(str(a) for a in self.about)}]"

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
    chain below e once, one restriction table per step, and each square
    carries the set of preimage restrictions at its own e2 (``lifts``).
    """
    F, G = f.source, f.target
    base = G.base
    word_budget = base.word_budget
    fiber = f.fiber

    def trace_limit(e, e2):
        """The longest trace of an x at e2 whose square under e stays within
        the word budget, or None for no limit."""
        if not (isinstance(e, Word) and isinstance(e2, Word)):
            return None
        return word_budget - (len(e) - len(e2))

    for e, stage in G.stages.items():
        chain = base.down(e)[::-1]
        # the restriction tables of G and F down the chain, one per cover
        tables = [(G.res[hi], F.res.get(hi, {})) for hi in chain[:-1]]
        top_family = "chain-limit" if isinstance(e, LassoTrace) else "extension"
        levels = [(i, chain[i], top_family if i == 1 else "extension", trace_limit(e, chain[i]))
                  for i in range(len(chain) - 1, 0, -1)]
        for w in stage:
            preimages = fiber(e, w)
            yield StreamSquare(f, "fiber", (e, w), preimages)
            history, lifts = [w], [preimages]
            for (down_g, down_f) in tables:
                history.append(down_g[history[-1]])
                lifts.append(set(map(down_f.__getitem__, lifts[-1])))
            for (i, e2, family, limit) in levels:
                for x in fiber(e2, history[i]):
                    if limit is None or len(x.trace) <= limit:
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
    lines = []
    for e in F.base.elements:
        inner = ", ".join(str(x) for x in F.stage(e))
        lines.append(f"stage {e}: {{{inner}}}")
    for hi in F.base.elements:
        for lo in F.base.strictly_below(hi):
            for x in F.stage(hi):
                lines.append(f"res {hi} -> {lo}: {x} |-> {F.restrict(x, hi, lo)}")
    return "\n".join(lines) + "\n"

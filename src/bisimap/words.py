"""Words over action alphabets, plus the extra observation points used as poset elements.

A word is a finite sequence of labels ordered by the prefix relation.  The
silent label is a dedicated sentinel (``TAU``) so that it can never collide
with a visible action name; in files it is spelled ``tau``.  Besides words,
three further kinds of poset element appear in the semantic bases:

* ``StretchPoint(n)`` -- the time-indexed stretchable observation, one per
  positive tick of the truncated time axis;
* ``TAU_BAR`` -- the single stretchable observation sitting above the empty
  word in the observation poset for silent-step-sensitive semantics;
* ``LassoTrace`` -- an ultimately periodic infinite trace, standing in for
  the infinite words reached by fair runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError


class _Sentinel:
    """A value equal only to itself, named by the module attribute that
    holds it; copies and unpickles as that attribute."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name.lower()

    def __reduce__(self):
        return self._name


# the silent label
TAU = _Sentinel("TAU")


def label_str(label) -> str:
    return "tau" if label is TAU else str(label)


def label_key(label):
    # Visible labels sort before the silent one; gives a stable total order.
    return (1, "") if label is TAU else (0, label)


class Word(tuple):
    """A finite word, possibly containing the silent label: the tuple of its
    labels."""

    __slots__ = ()

    @staticmethod
    def of(*letters) -> "Word":
        return Word(letters)

    def append(self, label) -> "Word":
        return Word(self + (label,))

    def prefixes(self):
        """All prefixes, shortest first (including self)."""
        return [Word(self[:n]) for n in range(len(self) + 1)]

    def is_prefix_of(self, other: "Word") -> bool:
        return self == other[: len(self)]

    def visible(self) -> "Word":
        """The word with all silent letters deleted."""
        return Word(l for l in self if l is not TAU)

    def __repr__(self):
        return f"Word(letters={tuple.__repr__(self)})"

    def __str__(self):
        if not self:
            return "eps"
        return ".".join(label_str(l) for l in self)


EPSILON = Word()


@dataclass(frozen=True)
class StretchPoint:
    """The stretchable empty observation at a positive time tick."""

    tick: int

    def __post_init__(self):
        if self.tick < 1:
            raise PreconditionError("stretch points exist only at ticks >= 1")

    def __str__(self):
        return f"tau_bar@{self.tick}"


# the stretchable observation in the visible-word poset
TAU_BAR = _Sentinel("TAU_BAR")


def minimal_period(cycle) -> list:
    """The shortest prefix of a nonempty sequence that repeats to the whole."""
    cycle = list(cycle)
    n = len(cycle)
    for p in range(1, n + 1):
        # p divides n and the sequence shifted by p is itself
        if n % p == 0 and cycle[p:] == cycle[:n - p]:
            return cycle[:p]


@dataclass(frozen=True)
class LassoTrace:
    """An ultimately periodic infinite trace: finite prefix plus repeated cycle.

    Stored in canonical form (shortest prefix, then shortest period), so two
    lassos denote the same infinite trace iff their ``LassoTrace`` are equal.
    """

    prefix: tuple
    cycle: tuple

    @staticmethod
    def canonical(prefix, cycle) -> "LassoTrace":
        if not cycle:
            raise PreconditionError("a lasso trace needs a nonempty cycle")
        prefix, cycle = list(prefix), minimal_period(cycle)
        while prefix and prefix[-1] == cycle[-1]:
            prefix.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return LassoTrace(tuple(prefix), tuple(cycle))

    def label_at(self, i: int):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def unroll(self, n: int) -> tuple:
        return tuple(self.label_at(i) for i in range(n))

    def word_prefix(self, n: int) -> Word:
        return Word(self.unroll(n))

    def __str__(self):
        pre = ".".join(label_str(l) for l in self.prefix)
        cyc = ".".join(label_str(l) for l in self.cycle)
        return f"{pre}({cyc})^w"


def element_key(element):
    """A total sort key over poset elements that refines every poset order
    used in this package (smaller elements always sort first)."""
    if isinstance(element, int):
        return (0, element, ())
    if isinstance(element, Word):
        return (1, len(element), tuple(label_key(l) for l in element))
    if element is TAU_BAR:
        return (2, 0, ())
    if isinstance(element, StretchPoint):
        return (2, element.tick, ())
    if isinstance(element, LassoTrace):
        return (3, 0, (str(element),))
    raise PreconditionError(f"not a poset element: {element!r}")

"""In-memory span tracing around bisimap's public functions.

``Tracer.install()`` replaces functions in the module namespaces where their
callers look them up (``bisimap.equiv.strong_sem_map``,
``bisimap.presheaf.find_filler``, ...) with wrappers that open a span, call
the original and close the span.  ``bisimap`` itself is not modified on disk
and the originals come back when the ``with`` block ends.

Spans carry an id, a parent id, a name and start/end times.  They are kept in
memory for the current op; ``end_op`` folds them into per-name self times (a
span's duration minus what its child spans cover) and then drops them, so a
long run does not hold every span at once.  Wrappers only record inside an
op: calls made outside one (reference checks, set-up) pass straight through.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict

import bisimap.cli
import bisimap.equiv
import bisimap.presheaf
import bisimap.semantics

ROOT = "bench.op"


def _poset_elements(poset):
    return {"presheaf.poset_elements": len(poset.elements)}


def _stage_elements(presheaf):
    return {"presheaf.stage_elements": presheaf.total_elements()}


def _lassos(lassos):
    return {"lts.lassos_enumerated": len(lassos)}


def _filler_found(filler):
    return {"presheaf.fillers_found": int(filler is not None)}


def _quotient_blocks(result):
    return {"equiv.quotient_blocks": len(result[0].states)}


def _square_family(square):
    return {f"presheaf.squares.{square.family}": 1}


# (module, attribute, span name, counter on the result); a function imported
# into several modules is listed once per namespace its callers use
PLAIN = [
    (bisimap.equiv, "check_bisim_map", "equiv.check_bisim_map", None),
    (bisimap.equiv, "check_strong_bisim_fn", "equiv.concrete", None),
    (bisimap.equiv, "check_fair_bisim_fn", "equiv.concrete", None),
    (bisimap.equiv, "check_fair_reflection", "equiv.concrete", None),
    (bisimap.equiv, "check_branching_bisim_fn", "equiv.concrete", None),
    (bisimap.equiv, "check_forall_fair_bisim", "equiv.forall_fair", None),
    (bisimap.equiv, "exists_violating_run", "equiv.omega_engine", None),
    (bisimap.equiv, "exists_fair_run", "equiv.omega_engine", None),
    (bisimap.equiv, "branching_bisimilarity", "equiv.bisimilarity", None),
    (bisimap.cli, "branching_quotient", "equiv.quotient", _quotient_blocks),
    (bisimap.equiv, "strong_sem_map", "semantics.lift", None),
    (bisimap.equiv, "fair_sem_map", "semantics.lift", None),
    (bisimap.equiv, "branching_sem_map", "semantics.lift", None),
    (bisimap.equiv, "fair_simulation_violation", "semantics.simulation_check", None),
    (bisimap.semantics, "fair_simulation_violation", "semantics.simulation_check", None),
    (bisimap.equiv, "branching_simulation_violation", "semantics.simulation_check", None),
    (bisimap.semantics, "executions_up_to", "lts.executions_up_to", None),
    (bisimap.equiv, "fair_lassos", "lts.fair_lassos", _lassos),
    (bisimap.semantics, "fair_lassos", "lts.fair_lassos", _lassos),
    (bisimap.cli, "parse_aut", "lts.parse_aut", None),
    (bisimap.cli, "serialize_aut", "lts.serialize_aut", None),
    (bisimap.equiv, "is_bisim_map_bounded", "presheaf.is_bisim_map_bounded", None),
    (bisimap.presheaf, "find_filler", "presheaf.find_filler", _filler_found),
    (bisimap.semantics, "word_poset", "presheaf.poset_build", _poset_elements),
    (bisimap.semantics, "branching_target_poset", "presheaf.poset_build", _poset_elements),
    (bisimap.semantics, "fair_target_poset", "presheaf.poset_build", _poset_elements),
    (bisimap.semantics, "make_presheaf", "presheaf.make_presheaf", _stage_elements),
    (bisimap.semantics, "nat_trans", "presheaf.nat_trans", None),
    (bisimap.presheaf, "nat_trans", "presheaf.nat_trans", None),
    (bisimap.cli, "run", "cli.run", None),
]

# generators: each ``next()`` is one span; the counter sees each item
GENERATORS = [
    (bisimap.presheaf, "enumerate_mono_squares", "presheaf.enumerate_squares", _square_family),
]


class Tracer:
    """Spans, per-name self times and counts, timed by ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [id, parent, name, start, end] of the current op
        self.stack = []  # ids of open spans
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, self.clock(), None])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][4] = self.clock()
        self.stack.pop()

    def begin_op(self):
        self.spans.clear()
        self._open(ROOT)

    def end_op(self):
        self._close(0)
        covered = [0.0] * len(self.spans)
        for (sid, parent, _, start, end) in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (sid, _, name, start, end) in self.spans:
            self.self_s[name] += (end - start) - covered[sid]
            self.calls[name] += 1
        self.spans.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def _wrap_generator(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not self.stack:
                    item = next(it, StopIteration)
                    if item is StopIteration:
                        return
                else:
                    sid = self._open(name)
                    try:
                        item = next(it, StopIteration)
                    finally:
                        self._close(sid)
                    if item is StopIteration:
                        return
                    self.counts.update(count(item))
                yield item

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for table, wrap in ((PLAIN, self._wrap), (GENERATORS, self._wrap_generator)):
                for (module, attr, name, count) in table:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(original, name, count))
            yield self
        finally:
            for (module, attr, original) in reversed(saved):
                setattr(module, attr, original)

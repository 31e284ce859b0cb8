"""Seeded inputs, the op under test, and its reference checks, per workload.

Every input comes from the generators below, driven by one ``random.Random``
seeded from the command line.  The system shapes follow the random systems of
the repository's test-suite (``random_lts``: ``n`` states drawn uniformly,
``round(density * n)`` random transitions), re-implemented here so that the
benchmark does not depend on the tests.

Each workload object has ``build(rng, workdir)``, which makes the op list as
``(cost key, op)`` pairs (``stratified`` picks the pool from them and orders
it by ``strata`` groups of that key), ``run(op)``, which performs one op (the timed part) and returns a small
comparable outcome, and ``verify(op, outcome)``, which checks that outcome
against references that do not come from the route under test and returns a
failure reason (or ``None``) and a route-disagreement ledger entry (or
``None``).  ``pool`` is the number of ops a run cycles through, sized so that
one pass takes about a run's length on the baseline machine; ``fair-checks``
is the exception, its pool of cheap ops runs some thirty times in a run.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import bisimap.cli
import bisimap.equiv
import bisimap.lts
import bisimap.semantics
from bisimap.errors import PreconditionError
from bisimap.lts import FairLts, Lts, StreettSpec
from bisimap.words import TAU

# ---------------------------------------------------------------------------
# Generators


def random_lts(rng, max_states, labels, tau_prob=0.0, density=1.2, prefix="s"):
    n = rng.randint(1, max_states)
    return random_lts_of_size(rng, n, labels, tau_prob, density, prefix)


def random_lts_of_size(rng, n, labels, tau_prob=0.0, density=1.2, prefix="s"):
    states = tuple(f"{prefix}{i}" for i in range(n))
    labels = tuple(labels)
    transitions = set()
    for _ in range(max(1, round(density * n))):
        src = rng.choice(states)
        tgt = rng.choice(states)
        if tau_prob and rng.random() < tau_prob:
            lab = TAU
        else:
            lab = rng.choice(labels)
        transitions.add((src, lab, tgt))
    return Lts.make(states, set(labels), transitions)


def random_total_map(rng, source, target):
    return {s: rng.choice(target.states) for s in source.states}


def random_blocks(rng, states):
    k = rng.randint(1, len(states))
    return {s: rng.randrange(k) for s in states}


def quotient_by_blocks(lts, blocks):
    """Induced-transition quotient; block i is named ``q<i>``."""
    name = {s: f"q{b}" for s, b in blocks.items()}
    states = tuple(sorted(set(name.values())))
    transitions = {(name[x], a, name[y]) for (x, a, y) in lts.transitions}
    return Lts.make(states, lts.alphabet, transitions), name


def random_streett(rng, lts, max_pairs=2):
    pairs = []
    for _ in range(rng.randint(0, max_pairs)):
        L = frozenset(s for s in lts.states if rng.random() < 0.5)
        U = frozenset(s for s in lts.states if rng.random() < 0.5)
        pairs.append((L, U))
    return StreettSpec(tuple(pairs))


def execution_count(lts, depth):
    """Number of executions of trace length <= depth, from every state."""
    succ = {s: [] for s in lts.states}
    for (src, _, tgt) in lts.transitions:
        succ[src].append(tgt)
    counts = {s: 1 for s in lts.states}
    for _ in range(depth):
        counts = {s: 1 + sum(counts[t] for t in succ[s]) for s in lts.states}
    return sum(counts.values())


def alternating_chain(n):
    """s0 -tau-> s1 -a-> s2 -tau-> s3 ...: n states, ceil(n/2) blocks."""
    states = tuple(f"s{i}" for i in range(n))
    transitions = {
        (states[i], TAU if i % 2 == 0 else "a", states[i + 1]) for i in range(n - 1)
    }
    return Lts.make(states, {"a"}, transitions)


# ---------------------------------------------------------------------------
# Map workloads

LASSO_BOUNDS = {"stem_bound": 3, "cycle_bound": 3}
FAIR_BOUNDS = {"depth": 3, **LASSO_BOUNDS}


@dataclass(frozen=True)
class MapOp:
    """One verdict of ``check_bisim_map`` on a generated map."""

    ident: str
    mode: str
    f: dict
    source: object
    target: object
    kwargs: dict


@dataclass(frozen=True)
class ForallFairOp:
    """One exact ``check_forall_fair_bisim`` verdict on a random equivalence."""

    ident: str
    relation: object
    system: object


def run_map_op(op):
    report = bisimap.equiv.check_bisim_map(op.f, op.source, op.target, op.mode, **op.kwargs)
    witness = report.presheaf_verdict.witness
    return (
        report.presheaf_verdict.holds,
        report.concrete_verdict.holds,
        None if witness is None else witness.family,
    )


CONCRETE_REFERENCE = {
    "strong": "check_strong_bisim_fn",
    "branching": "check_branching_bisim_fn",
    "fair": "check_fair_bisim_fn",
}


def verify_map_op(op, outcome):
    filler, concrete, family = outcome
    ref_fn = getattr(bisimap.equiv, CONCRETE_REFERENCE[op.mode])
    if op.mode == "fair":
        reference = ref_fn(op.f, op.source, op.target, **LASSO_BOUNDS).holds
    else:
        reference = ref_fn(op.f, op.source, op.target).holds
    ledger = None
    if filler != reference:
        ledger = {
            "op": op.ident,
            "direction": "filler-accepts" if filler else "filler-refuses",
            "family": family,
        }
    if concrete != reference:
        return "report's concrete verdict differs from the direct concrete check", ledger
    if filler and not reference:
        # check_bisim_map: a concrete refusal is always matched by a failing square
        return "filler accepts a map the concrete checker refuses", ledger
    if op.mode == "strong" and filler != reference:
        return "strong filler verdict differs from check_strong_bisim_fn", ledger
    return None, ledger


def run_fair_fn_op(op):
    return (bisimap.equiv.check_fair_bisim_fn(op.f, op.source, op.target, **LASSO_BOUNDS).holds,)


def verify_fair_fn_op(op, outcome):
    (exact,) = outcome
    bounded = bisimap.equiv.check_fair_bisim_fn(
        op.f, op.source, op.target, mode="bounded", **LASSO_BOUNDS
    ).holds
    if exact and not bounded:
        # a bounded witness is a genuine run with a fair image, so exact must refuse too
        return "bounded fair-map refusal without an exact refusal", None
    if op.source is op.target and all(x == y for (x, y) in op.f.items()) and not exact:
        return "identity map refused", None
    return None, None


def run_forall_fair_op(op):
    verdict = bisimap.equiv.check_forall_fair_bisim(op.relation, op.system, mode="exact_streett")
    return (verdict.holds,)


def verify_forall_fair_op(op, outcome):
    (exact,) = outcome
    bounded = bisimap.equiv.check_forall_fair_bisim(
        op.relation, op.system, mode="bounded", **LASSO_BOUNDS
    ).holds
    if exact and not bounded:
        # a bounded witness is a genuine pair of runs, so exact must refuse too
        return "bounded forall-fair refusal without an exact refusal", None
    return None, None


def is_branching_simulation(f, source, target):
    try:
        return bisimap.semantics.branching_simulation_violation(f, source, target) is None
    except PreconditionError:
        return False


def capped(draw, size, cap):
    """Draw until the system's size is at most ``cap``."""
    while True:
        item = draw()
        if size(item) <= cap:
            return item


def even_ranks(items, count, rng, key):
    """``count`` of the items at evenly spaced ranks of ``key``, in rank
    order: the generator's own distribution of ``key`` without its sampling
    noise.  The cost of a check grows steeply with the size of its systems,
    and a seed that drew a few more large ones would otherwise run markedly
    slower."""
    ranked = sorted(items, key=key)
    if len(ranked) < count:
        raise RuntimeError(f"{len(ranked)} items for {count} picks")
    step = len(ranked) / count
    offset = rng.random()
    return [ranked[int((k + offset) * step)] for k in range(count)]


def fixed_acceptance(entries, rng, pool, accepted):
    """``pool`` of the (key, op) entries, whose keys start with the concrete
    verdict, ``accepted`` of them accepted and each part at evenly spaced
    ranks of the key.  Accepted maps run the whole square stream and refused
    ones stop early, so a share left to the seed moved the op rate and the
    tail with it."""
    parts = [([e for e in entries if e[0][0] == verdict], count)
             for (verdict, count) in ((False, pool - accepted), (True, accepted))]
    return [e for (part, count) in parts
            for e in even_ranks(part, count, rng, key=lambda kv: (kv[0], kv[1].ident))]


def stratified(entries, rng, pool, strata):
    """Pick ``pool`` of the (cost key, op) entries at evenly spaced ranks of
    the key, and order them so that every run sees the same cost mix.

    The picks are cut into ``strata`` groups by rank, and the order takes one
    op from each group per round, groups in a fresh seeded order each round,
    so any prefix of ``r * strata`` ops holds ``r`` ops of every group.
    """
    if pool % strata:
        raise RuntimeError(f"a pool of {pool} in {strata} strata")
    picks = [op for (_, op) in even_ranks(entries, pool, rng, key=lambda kv: (kv[0], kv[1].ident))]
    size = pool // strata
    groups = [picks[g * size:(g + 1) * size] for g in range(strata)]
    for group in groups:
        rng.shuffle(group)
    order = []
    for r in range(size):
        rounds = list(range(strata))
        rng.shuffle(rounds)
        order.extend(groups[g][r] for g in rounds)
    return order


def dedup(maps):
    seen = set()
    for f in maps:
        key = tuple(sorted(f.items()))
        if key not in seen:
            seen.add(key)
            yield f


class StrongMaps:
    """Strong maps between random systems of at most 5 states over {a, b}."""

    name = "strong-maps"
    # a pair gives up to 20 maps, often many accepted ones of one cost, so the
    # cost quantiles of 1200 pairs moved with the seed; 3000 steady them
    pairs = 3000
    pool = 160
    # the generator's share of accepted maps is 49% (2% between seeds)
    accepted = 80
    strata = 32
    depth = 4
    # 99.5th percentile of the generator's execution counts at depth 4; the
    # rarer larger systems take seconds per check and one decides a run
    max_executions = 128
    # about the 97th percentile of the pairs' summed counts among accepted
    # maps: the few pairs above it took 1 to 2.3 s per check, and whether a
    # run drew them moved its op rate by a fifth
    max_pair_executions = 150

    def build(self, rng, workdir):
        def size(X):
            return execution_count(X, self.depth)

        def draw():
            return capped(lambda: random_lts(rng, 5, ("a", "b"), density=1.4),
                          size, self.max_executions)

        # criterion-01 shape: pair i maps a fresh source, by i mod 4, onto
        # itself, a random quotient of it, or a fresh system; 20 candidates
        entries = []
        for i in range(self.pairs):
            X = draw()
            qmap = None
            if i % 4 == 0:
                Y = X
            elif i % 4 == 1:
                Y, qmap = quotient_by_blocks(X, random_blocks(rng, X.states))
            else:
                Y = draw()
            cost = size(X) + size(Y)
            if cost > self.max_pair_executions:
                continue
            maps = [random_total_map(rng, X, Y) for _ in range(20)]
            if set(X.states) <= set(Y.states):
                maps[0] = {s: s for s in X.states}
            if qmap is not None:
                maps[1] = qmap
            for j, f in enumerate(dedup(maps)):
                if bisimap.lts.is_simulation(f, X, Y)[0]:
                    accepted = bisimap.equiv.check_strong_bisim_fn(f, X, Y).holds
                    op = MapOp(f"p{i}m{j}", "strong", f, X, Y, {"depth": self.depth})
                    entries.append(((accepted, cost), op))
        return fixed_acceptance(entries, rng, self.pool, self.accepted)

    run = staticmethod(run_map_op)
    verify = staticmethod(verify_map_op)


class BranchingMaps:
    """Branching quotient maps and random branching simulations between
    random silent-step systems of at most 4 states over {a, b}."""

    name = "branching-maps"
    systems = 3000
    pool = 192
    # the generator's share of accepted maps is 79% (2% between seeds)
    accepted = 151
    strata = 32
    depth = 4
    # 99.5th percentiles of the execution counts of the generated systems and
    # of their branching quotients (quotient maps carry almost all the cost)
    max_executions = 129
    max_quotient_executions = 89
    # about the 95th percentile of the pairs' products of execution counts:
    # the pairs above it took 0.3 to 1.6 s per check, a third of the time of
    # a pass, and how many of them a seed drew moved its op rate by a fifth
    max_pair_product = 2500

    def build(self, rng, workdir):
        def size(X):
            return execution_count(X, self.depth)

        def draw(prefix="s"):
            return capped(
                lambda: random_lts(rng, 4, ("a", "b"), tau_prob=0.35, density=1.5, prefix=prefix),
                size, self.max_executions)

        def draw_with_quotient():
            X = draw()
            return (X, *bisimap.equiv.branching_quotient(X))

        entries = []
        for i in range(self.systems):
            if i % 2 == 0:
                X, Y, qmap = capped(draw_with_quotient, lambda xyq: size(xyq[1]),
                                    self.max_quotient_executions)
                candidates = [qmap]
            else:
                X, Y = draw(), draw("t")
                candidates = list(dedup(random_total_map(rng, X, Y) for _ in range(6)))
            cost = size(X) * size(Y)
            if cost > self.max_pair_product:
                continue
            for j, f in enumerate(candidates):
                if is_branching_simulation(f, X, Y):
                    accepted = bisimap.equiv.check_branching_bisim_fn(f, X, Y).holds
                    # silent steps that f collapses: the more of them, the more
                    # often the filler route refuses early (none: never; two or
                    # more: about half the time), and an early refusal is cheap,
                    # so their mix in the pool set a seed's op rate
                    inert = sum(1 for (x, a, y) in X.transitions if a == TAU and f[x] == f[y])
                    op = MapOp(f"x{i}m{j}", "branching", f, X, Y, {"depth": self.depth})
                    entries.append(((accepted, inert, cost), op))
        return fixed_acceptance(entries, rng, self.pool, self.accepted)

    run = staticmethod(run_map_op)
    verify = staticmethod(verify_map_op)


class FairMaps:
    """Fair maps between random Streett systems of at most 3 states, plus
    exact forall-fair checks of random equivalences on the same systems.

    ``route`` says what a map op runs: ``"filler"`` the whole
    ``check_bisim_map(..., "fair")``, ``"concrete"`` only its concrete route,
    ``check_fair_bisim_fn``.  Both draw the same inputs for a seed."""

    pairs = 1100
    pool = 512
    strata = 32
    # Maps between two of the densest one-label systems (both at about the
    # largest execution count) take 0.25 to 0.36 s each, several times the
    # next class; how many of them a seed drew decided the tail latency, so
    # such pairs are skipped.  They are 4 to 6% of the map checks.
    max_pair_product = 60000

    def __init__(self, name, route):
        self.name = name
        self.route = route

    def build(self, rng, workdir):
        def fair_system(labels, prefix="s"):
            lts = random_lts(rng, 3, labels, density=1.8, prefix=prefix)
            return FairLts(lts, random_streett(rng, lts))

        def size(X):
            return execution_count(X.lts, 2 * FAIR_BOUNDS["depth"])

        # A fair map check on a two-label system takes 1 to 35 s (one op can
        # outlast a run), so the two-label systems, one pair in four, only
        # enter the forall-fair checks, which take well under 1 ms.  The map
        # checks cost roughly in proportion to the lassos of their systems,
        # and a few systems have several times the median count, so sources
        # are picked at evenly spaced ranks of their execution count, which
        # grows with the lasso count and is cheap to take.
        per_kind = self.pairs // 4
        sources = [[fair_system(("a", "b")) for _ in range(per_kind)]] + [
            even_ranks([fair_system(("a",)) for _ in range(4 * per_kind)], per_kind, rng, size)
            for _ in range(3)
        ]
        for kind in sources[1:]:
            rng.shuffle(kind)  # even_ranks returns them by size
        forall_checks, map_checks = [], []
        for i in range(4 * per_kind):
            X = sources[i % 4][i // 4]
            if i % 2 == 0:
                blocks = random_blocks(rng, X.lts.states)
                relation = bisimap.equiv.PartitionRelation(
                    X.lts.states,
                    frozenset((a, b) for a in X.lts.states for b in X.lts.states
                              if blocks[a] == blocks[b]),
                )
                forall_checks.append(ForallFairOp(f"p{i}r", relation, X))
            if i % 4 == 0:
                continue
            qmap = None
            if i % 4 == 1:
                Y = X
            elif i % 4 == 2:
                Yl, qmap = quotient_by_blocks(X.lts, random_blocks(rng, X.lts.states))
                Y = FairLts(Yl, random_streett(rng, Yl, max_pairs=1))
            else:
                Y = fair_system(("a",), "t")
            if size(X) * size(Y) >= self.max_pair_product:
                continue
            maps = [random_total_map(rng, X.lts, Y.lts) for _ in range(6)]
            if Y is X:
                maps[0] = {s: s for s in X.lts.states}
            if qmap is not None:
                maps[1] = qmap
            cost = size(X) + size(Y)
            for j, f in enumerate(dedup(maps)):
                if bisimap.semantics.fair_simulation_violation(f, X, Y, **LASSO_BOUNDS) is None:
                    accepted = bisimap.equiv.check_fair_bisim_fn(f, X, Y, **LASSO_BOUNDS).holds
                    op = MapOp(f"p{i}m{j}", "fair", f, X, Y, FAIR_BOUNDS)
                    map_checks.append(((accepted, cost), op))
        # A fixed mix, one forall-fair check in four: those take well under
        # 1 ms and the map checks 1 ms to 0.3 s, so a share that moved with
        # the seed would move the op rate and the median with it.
        forall_picks = rng.sample(forall_checks, self.pool // 4)
        map_picks = even_ranks(map_checks, self.pool - len(forall_picks), rng,
                               key=lambda kv: (kv[0], kv[1].ident))
        return [((0, False, 0), op) for op in forall_picks] + [
            ((1, *key), op) for (key, op) in map_picks
        ]

    def run(self, op):
        if isinstance(op, ForallFairOp):
            return run_forall_fair_op(op)
        if self.route == "concrete":
            return run_fair_fn_op(op)
        return run_map_op(op)

    def verify(self, op, outcome):
        if isinstance(op, ForallFairOp):
            return verify_forall_fair_op(op, outcome)
        if self.route == "concrete":
            return verify_fair_fn_op(op, outcome)
        return verify_map_op(op, outcome)


# ---------------------------------------------------------------------------
# CLI quotienting


@dataclass(frozen=True)
class QuotientOp:
    """One ``bisimap quotient --kind branching`` command on a written file."""

    ident: str
    model: Path
    output: Path
    lts: object
    chain: bool


class QuotientCli:
    """Branching quotients through the command line: alternating silent/visible
    chains of 25 to 100 states and random silent-step systems of 25 to 150."""

    name = "quotient-cli"
    models = 64
    min_states = 25
    max_states = 150
    # a chain costs several times a random system of its size (1 s against
    # 0.18 s at 137 states); chains up to 150 states took four fifths of a
    # pass, so each op ran about once in a run and its latency was one sample
    max_chain_states = 100
    pool = 64
    strata = 16

    def build(self, rng, workdir):
        entries = []
        bins = self.models // 2
        for i in range(self.models):
            # one chain and one random system per size bin, at its middle:
            # the work grows with the cube of the size, so the size is not
            # left to the seed
            chain = i % 2 == 0
            top = self.max_chain_states if chain else self.max_states
            n = self.min_states + int((i // 2 + 0.5) * (top - self.min_states + 1) / bins)
            if chain:
                lts = alternating_chain(n)
            else:
                lts = random_lts_of_size(rng, n, ("a", "b"), tau_prob=0.35, density=1.5)
            model = workdir / f"m{i}.aut"
            model.write_text(bisimap.lts.serialize_aut(lts))
            model.with_suffix(".names").write_text("\n".join(lts.states) + "\n")
            op = QuotientOp(f"m{i}", model, workdir / f"m{i}", lts, chain)
            entries.append(((n, chain), op))
        return entries

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bisimap.cli.run(
                ["quotient", "--kind", "branching", "--output", str(op.output), str(op.model)]
            )
        return (code, out.getvalue().rstrip().rsplit("(", 1)[-1])

    def verify(self, op, outcome):
        code, tail = outcome
        if code != 0:
            return f"quotient exited with code {code}", None
        quotient = bisimap.lts.parse_aut(
            op.output.with_suffix(".quotient.aut").read_text(),
            bisimap.lts.parse_names(op.output.with_suffix(".quotient.names").read_text()),
        )
        f = bisimap.lts.parse_state_map(
            op.output.with_suffix(".quotient.map").read_text(), op.lts, quotient
        )
        blocks = len(quotient.states)
        if tail != f"{blocks} states)":
            return f"quotient reported {tail!r} for {blocks} states", None
        if op.chain and blocks != math.ceil(len(op.lts.states) / 2):
            return f"chain of {len(op.lts.states)} states gave {blocks} blocks", None
        if not bisimap.equiv.check_branching_bisim_fn(f, op.lts, quotient).holds:
            return "written quotient map is not a branching bisimulation function", None
        return None, None


# fair-maps is not in BENCHMARK.json: its filler route accepts fair maps that
# the concrete route refuses, against the check_bisim_map docstring, so its
# runs have failed ops.  selftest.py runs it to keep that defect in view;
# fair-checks times the concrete route on the same inputs.
WORKLOADS = {
    w.name: w
    for w in (StrongMaps(), FairMaps("fair-checks", "concrete"), FairMaps("fair-maps", "filler"),
              BranchingMaps(), QuotientCli())
}

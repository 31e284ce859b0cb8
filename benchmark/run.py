#!/usr/bin/env python3
"""Seeded closed-loop benchmark for bisimap: one client, one op at a time.

    python3 benchmark/run.py --workload strong-maps --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program under test is imported
from ``src/`` next to this directory, never from an installed copy.  Input
files and outputs go to ``.bench_build/bisimap-bench/`` and are removed at
exit.  Needs only the standard library.

With ``--trace 0`` the op loop runs every op of the workload's pool at least
once and goes on, in whole rounds, until ``--seconds`` seconds have passed;
the last output line carries the end-to-end metrics.  With ``--trace 1``
every op of the pool runs once untraced and once traced, in alternating
order, and the last line carries the per-layer metrics.  The line before the
last is a full report: all end-to-end numbers, the route-disagreement ledger
and the verdict digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bisimap-bench"
SETUP_REPS = 3
IMPORT_PROBE = (
    "import time; t = time.process_time(); import bisimap; print(time.process_time() - t)"
)
# Op times are CPU time of this single-threaded, CPU-bound process.  On a
# shared virtual machine wall time also counts time the hypervisor gives to
# other guests (steal), which made identical runs differ by 15%.
CPU_CLOCK = time.thread_time
# CPU time is not steady there either: the CPU runs slower while other guests
# load the host, so one fixed loop took 24 to 56 ms within a minute, with a
# slower drift over minutes.  A fixed reference loop, timed between ops,
# measures that speed, and every reported time is scaled to a machine on
# which the loop takes REFERENCE_S of CPU time.
REFERENCE_S = 0.002
REFERENCE_OBJECTS = 2000
PROBE_EVERY_S = 0.1
# spans whose self time is the entry points' own glue, not a layer's work
GLUE = ("bench.op", "equiv.check_bisim_map", "cli.run")
COVERAGE_FLOOR = 0.9


def load_bisimap():
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    package = SRC / "bisimap"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no bisimap sources at {package}")
    sys.path.insert(0, str(SRC))
    import bisimap

    if Path(bisimap.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported bisimap from {bisimap.__file__}, not {package}")


def child_import_seconds():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def reference_loop():
    """Fixed interpreter work of the kind bisimap does: building tuples and
    strings, hashing them into a dict and sorting by a key."""
    items = [(i, str(i), (i % 3, i % 5)) for i in range(REFERENCE_OBJECTS)]
    return len({item[2]: item for item in items}), sorted(items, key=lambda item: item[2])[0]


class SpeedProbe:
    """CPU times of the reference loop, taken between ops."""

    def __init__(self):
        self.samples = []
        self.due = 0.0

    def sample(self, count=1):
        for _ in range(count):
            before = CPU_CLOCK()
            reference_loop()
            self.samples.append(CPU_CLOCK() - before)
        self.due = CPU_CLOCK() + PROBE_EVERY_S

    def tick(self):
        """Take a sample once PROBE_EVERY_S of CPU time passed since the last."""
        if CPU_CLOCK() >= self.due:
            self.sample()

    def scale(self):
        """Factor from this run's CPU times to the reference machine's."""
        return REFERENCE_S / statistics.median(self.samples)


def set_up(workload, seed, workdir, probe):
    """One full set-up: import in a fresh interpreter, generate, write files."""
    from workloads import stratified

    probe.sample(10)
    import_s = child_import_seconds()
    start = CPU_CLOCK()
    workdir.mkdir(parents=True)
    rng = random.Random(seed)
    ops = stratified(workload.build(rng, workdir), rng, workload.pool, workload.strata)
    return ops, import_s + CPU_CLOCK() - start


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def canonical(value):
    """A form of an op's inputs that repeats across processes: sets and dicts
    in sorted order (their iteration order follows the per-process string
    hash), dataclasses by field, paths left out (they name the run's
    directory)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
            if not isinstance(getattr(value, f.name), Path)
        ))
    if isinstance(value, dict):
        return tuple(sorted((repr(canonical(k)), canonical(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(canonical(v)) for v in value))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return repr(value)


def run_op(workload, op):
    try:
        return workload.run(op)
    except Exception as exc:  # noqa: BLE001 - a raising op is counted, not fatal
        return ("raised", type(exc).__name__, str(exc)[:200])


def check_op(workload, op, outcome):
    if outcome and outcome[0] == "raised":
        return f"raised {outcome[1]}: {outcome[2]}", None
    try:
        return workload.verify(op, outcome)
    except Exception as exc:  # noqa: BLE001 - a failing reference check is a failed op
        return f"verification raised {type(exc).__name__}: {exc}", None


def tail(latencies):
    """The latency with 10 values beyond it, at the highest such percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - 11)
    return ordered[rank], 100.0 * (rank + 1) / n, n


class Ledger:
    """Failures and route disagreements, checked once per distinct op."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.failure = {}
        self.disagreement = {}

    def record(self, index, op, outcome):
        """Returns True if the op failed."""
        if index not in self.first:
            self.first[index] = outcome
            reason, ledger = check_op(self.workload, op, outcome)
            if reason is not None:
                self.failure[index] = f"{op.ident}: {reason}"
            if ledger is not None:
                self.disagreement[index] = ledger
            return reason is not None
        if outcome != self.first[index]:
            self.failure.setdefault(index, f"{op.ident}: verdict changed between runs")
            return True
        return index in self.failure


def measure(workload, ops, seconds, probe):
    """Run the pool at least once, then whole rounds until ``seconds`` passed.

    Returns the ledger, each op's latencies and the number of failed runs.
    Every run thus times the same ops, whatever the machine's speed, and a
    repeated op counts once, by its median latency.
    """
    ledger = Ledger(workload)
    latencies = [[] for _ in ops]
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        probe.tick()
        index = i % len(ops)
        op = ops[index]
        before = CPU_CLOCK()
        outcome = run_op(workload, op)
        latencies[index].append(CPU_CLOCK() - before)
        i += 1
        # reference checks run outside the op's own latency
        failed += ledger.record(index, op, outcome)
        if i >= len(ops) and i % workload.strata == 0 and time.perf_counter() - start >= seconds:
            break
    return ledger, latencies, failed


def measure_traced(workload, ops, probe):
    from tracing import Tracer

    tracer = Tracer(CPU_CLOCK)
    ledger = Ledger(workload)
    plain, traced = [], []
    failed = 0
    for (index, op) in enumerate(ops):
        probe.tick()
        runs = {}
        for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_run:
                with tracer.install():
                    tracer.begin_op()
                    before = CPU_CLOCK()
                    runs[True] = run_op(workload, op)
                    after = CPU_CLOCK()
                    tracer.end_op()
                traced.append(after - before)
            else:
                before = CPU_CLOCK()
                runs[False] = run_op(workload, op)
                plain.append(CPU_CLOCK() - before)
        bad = ledger.record(index, op, runs[False])
        if runs[True] != runs[False]:
            ledger.failure.setdefault(index, f"{op.ident}: traced verdict differs from untraced")
            bad = True
        failed += bad
    glue = {name: tracer.self_s[name] / sum(traced) for name in GLUE}
    return ledger, tracer, failed, {
        "traced_s": sum(traced),
        "untraced_s": sum(plain),
        "overhead": sum(traced) / sum(plain) - 1.0,
        "glue_share": glue,
        "coverage": 1.0 - sum(glue.values()),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(ops, ledger, tracer, timing, scale):
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    calls = c["presheaf.find_filler"]
    fair_checks = sum(1 for op in ops if getattr(op, "mode", None) == "fair")
    out = {}
    for name in ("presheaf.find_filler", "presheaf.enumerate_squares", "presheaf.poset_build",
                 "presheaf.make_presheaf", "presheaf.nat_trans", "presheaf.is_bisim_map_bounded",
                 "lts.fair_lassos", "lts.executions_up_to", "lts.parse_aut", "lts.serialize_aut",
                 "semantics.lift", "semantics.simulation_check", "equiv.omega_engine",
                 "equiv.forall_fair", "equiv.bisimilarity", "equiv.quotient", "equiv.concrete",
                 "equiv.check_bisim_map", "cli.run"):
        out[f"{name}.self_s"] = metric(s[name] * scale, "s")
    for name in ("presheaf.find_filler", "lts.fair_lassos", "lts.executions_up_to",
                 "equiv.omega_engine"):
        out[f"{name}.calls"] = metric(c[name], "count")
    for family in ("fiber", "extension", "chain-limit", "pair"):
        out[f"presheaf.squares.{family}"] = metric(n[f"presheaf.squares.{family}"], "count")
    out["presheaf.fillers_found_ratio"] = metric(
        n["presheaf.fillers_found"] / calls if calls else 0.0, "ratio")
    for name in ("presheaf.poset_elements", "presheaf.stage_elements", "lts.lassos_enumerated",
                 "equiv.quotient_blocks"):
        out[name] = metric(n[name], "count")
    out["lts.fair_lassos.per_check"] = metric(
        c["lts.fair_lassos"] / fair_checks if fair_checks else 0.0, "count")
    out["bench.op.self_s"] = metric(s["bench.op"] * scale, "s")
    out["route_disagreements"] = metric(len(ledger.disagreement), "count")
    out["trace.overhead"] = metric(timing["overhead"], "ratio")
    out["trace.coverage"] = metric(timing["coverage"], "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_bisimap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        return bench(workload, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def bench(workload, args, rundir):
    probe = SpeedProbe()
    setups = []
    op_digests = set()
    for rep in range(SETUP_REPS):
        ops = None  # one op list alive at a time keeps peak memory a property of the run
        ops, seconds = set_up(workload, args.seed, rundir / f"setup{rep}", probe)
        setups.append(seconds)
        op_digests.add(digest(canonical(op) for op in ops))

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "op_list_digest": sorted(op_digests),
        "setup_reps": setups,
        "pool": len(ops),
    }
    if args.trace:
        ledger, tracer, failed, timing = measure_traced(workload, ops, probe)
        attempted = len(ops)
        metrics = layer_metrics(ops, ledger, tracer, timing, probe.scale())
        report["tracing"] = timing
        correct = timing["coverage"] >= COVERAGE_FLOOR
    else:
        ledger, latencies, failed = measure(workload, ops, args.seconds, probe)
        attempted = sum(len(runs) for runs in latencies)
        per_op = [statistics.median(runs) for runs in latencies]
        scale = probe.scale()
        tail_s, percentile, samples = tail(per_op)
        metrics = {
            "setup_s": metric(statistics.median(setups) * scale, "s"),
            "ops_per_s": metric(len(per_op) / (sum(per_op) * scale), "1/s"),
            "op_p50_ms": metric(1000 * statistics.median(per_op) * scale, "ms"),
            "op_tail_ms": metric(1000 * tail_s * scale, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["op_tail"] = {"percentile": percentile, "samples": samples}
        report["unscaled"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_tail_ms": 1000 * tail_s,
        }
        report["failed_ops"] = failed
        report["ops"] = attempted
        correct = True
    # every run checks every op of the pool, so these do not depend on how
    # fast the run was
    report["ledger"] = [ledger.disagreement[i] for i in sorted(ledger.disagreement)]
    report["route_disagreements"] = len(report["ledger"])
    report["verdict_digest"] = digest((op.ident, ledger.first[i]) for (i, op) in enumerate(ops))
    report["failures"] = [ledger.failure[i] for i in sorted(ledger.failure)][:20]
    correct = correct and failed == 0 and len(op_digests) == 1
    report["speed_probe"] = {"samples": len(probe.samples), "scale": probe.scale()}
    report["metrics"] = metrics
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

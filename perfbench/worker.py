"""One workload in one process: ``python -m perfbench.worker``.

``--phase prepare`` runs the workload's untimed preparation (it writes into
``--workdir``); ``--phase measure`` sets up, runs the closed loop and the
oracle, and prints one JSON record as its last line.  ``perfbench/run.py``
starts both phases with a cleaned environment; run this module directly
only to debug a workload.

A plain run (``--trace 0``) times the set-up ``setup_repeats`` times, warms
up, then runs the schedule for ``--seconds`` (continuing to the next
schedule boundary, and until every gated family has enough samples for its
tail percentile, for at most :data:`LOOP_MARGIN_S` more), and times the
set-up ``setup_repeats`` times again, so ``setup_s`` spans the run's drift
in host speed as the query timings do.  Its timings are scaled to the
reference host speed by a :class:`~perfbench.measure.HostClock`.  A traced run (``--trace 1``) runs
the workload's fixed reference schedule on two copies of the workload in
lockstep, one plain and one with layer spans, so per-layer numbers compare
like with like across commits and the difference of the two copies' times
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Iterator, Optional

import numpy as np

import repro
from perfbench import measure
from perfbench.spans import Instrumentation, Tracer, layer_breakdown, layer_names
from perfbench.workloads import WORKLOADS, Op, Workload

#: A plain run's loop stops this many seconds past ``--seconds`` even if
#: a gated family has too few samples (the run then fails).
LOOP_MARGIN_S = 80.0
#: Operation families behind the gated latency and throughput metrics.
GATED_FAMILIES = ("range", "knn")


def answer_count(result: Any) -> int:
    """Answers in a single result list or a batch of them."""
    if result and isinstance(result[0], list):
        return sum(len(r) for r in result)
    return len(result)


class Counts:
    """Per-layer counts read from ``plan.explain()`` after ``execute()``."""

    def __init__(self) -> None:
        self.total: Counter = Counter()
        self.frontier_peak = 0

    def observe(self, op: Op, plan: Any, result: Any) -> None:
        if plan is None:
            return
        explain = plan.explain()
        root = explain["plan"]
        io = root.get("io", {})
        t = self.total
        kind = explain["kind"]
        if kind == "range":
            t["range_plans"] += 1
            t["scan_routed"] += explain["access_path"] == "scan"
            t["candidates"] += io.get("candidate_count", io.get("distance_computations", 0))
            t["answers"] += answer_count(result)
            t["completed"] += io.get("verifications_completed", 0)
            t["abandoned"] += io.get("verifications_abandoned", 0)
        elif kind == "subseq_range":
            t["subseq_range_plans"] += 1
            t["prefix_probes"] += explain["probe"]["strategy"] == "prefix"
        elif kind in ("knn", "subseq_knn"):
            frontier = root.get("frontier", {})
            t["knn_queries"] += op.queries
            t["nodes_expanded"] += frontier.get("nodes_expanded", 0)
            t["entries_scanned"] += frontier.get("entries_scanned", 0)
            self.frontier_peak = max(self.frontier_peak, frontier.get("frontier_peak", 0))
        elif kind == "join":
            t["node_reads"] += io.get("node_reads", 0)

    def metrics(self) -> dict[str, float]:
        t = self.total

        def ratio(a: str, b: str) -> float:
            return t[a] / t[b] if t[b] else 0.0

        return {
            "core.planner.scan_routed_frac": ratio("scan_routed", "range_plans"),
            "core.planner.prefix_probe_frac": ratio("prefix_probes", "subseq_range_plans"),
            "storage.stats.candidates_per_answer": (
                t["candidates"] / max(t["answers"], 1)
            ),
            "storage.stats.abandoned_frac": (
                t["abandoned"] / max(t["completed"] + t["abandoned"], 1)
            ),
            "rtree.kernel.nodes_expanded_per_query": ratio("nodes_expanded", "knn_queries"),
            "rtree.kernel.entries_scanned_per_query": ratio("entries_scanned", "knn_queries"),
            "rtree.kernel.frontier_peak": float(self.frontier_peak),
            "storage.stats.node_reads": float(t["node_reads"]),
        }


class Runner:
    """Runs operations, times them, and defers their checks."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: ``perf_counter`` at the end of each sample, for host-speed scaling.
        self.ends: dict[str, list[float]] = defaultdict(list)
        self.queries: Counter = Counter()
        self.counts = Counts()
        self.pending: list[tuple[Any, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def run(self, op: Op) -> None:
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if self.tracer is not None:
                with self.tracer.root(op.family):
                    plan, result = op.call()
            else:
                plan, result = op.call()
        except Exception as exc:  # counted as a failed operation, never fatal
            self.failed += 1
            self.errors[f"{op.family}: {type(exc).__name__}: {exc}"[:200]] += 1
            return
        end = time.perf_counter_ns()
        self.samples[op.family].append((end - start) / 1e6)
        self.ends[op.family].append(end / 1e9)
        self.queries[op.family] += op.queries
        self.counts.observe(op, plan, result)
        if op.check is not None:
            self.pending.append((op, result))

    def setup(self, workload: Workload) -> None:
        workload.release()
        self.run(Op("setup", lambda: (None, workload.setup())))

    def verify(self) -> None:
        for op, result in self.pending:
            try:
                reason = op.check(result)
            except Exception as exc:  # a crashing check is a wrong answer
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                self.failed += 1
                self.errors[f"{op.family}: {reason}"[:200]] += 1
        self.pending.clear()

    def merge_outcomes(self, other: "Runner") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.update(other.errors)


def _take(ops: Iterator[Op], n: int) -> Iterator[Op]:
    for _ in range(n):
        yield next(ops)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plain_run(workload: Workload, seconds: float) -> tuple[Runner, dict]:
    runner = Runner()
    clock = measure.HostClock()

    def time_setups() -> None:
        for _ in range(workload.setup_repeats):
            clock.calibrate()
            runner.setup(workload)
        clock.calibrate()

    time_setups()
    for op in _take(workload.warmup("warmup"), workload.warmup_ops):
        runner.run(op)
    for family in list(runner.samples):
        if family != "setup":
            del runner.samples[family], runner.ends[family]
    runner.queries.clear()
    floor = measure.samples_needed(measure.GATED_TAIL)
    start = time.perf_counter()
    for op in workload.schedule("ops"):
        runner.run(op)
        clock.tick()
        elapsed = time.perf_counter() - start
        if elapsed > seconds + LOOP_MARGIN_S:
            break
        enough = all(len(runner.samples[f]) >= floor for f in GATED_FAMILIES)
        if op.boundary and enough and elapsed >= seconds:
            break
    loop_s = time.perf_counter() - start
    rss = _peak_rss_mb()
    time_setups()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    verify_start = time.perf_counter()
    workload.verify_context()
    runner.verify()
    verify_s = time.perf_counter() - verify_start

    scaled = {
        f: [ms * clock.factor(t) for ms, t in zip(runner.samples[f], runner.ends[f])]
        for f in runner.samples
    }
    metrics = _timing_metrics(scaled, runner.queries)
    metrics["peak_rss_mb"] = rss
    metrics.update(workload.extras(scaled))
    metrics["error_rate"] = runner.failed / max(runner.attempted, 1)
    detail = {
        "loop_s": loop_s,
        "verify_s": verify_s,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "calibration_ms_p50": statistics.median(clock.kernel_ms),
        "calibrations": len(clock.kernel_ms),
        "raw": _timing_metrics(runner.samples, runner.queries),
        "timings": {f: measure.summarize(v) for f, v in scaled.items()},
        "queries": dict(runner.queries),
    }
    return runner, {"metrics": metrics, "detail": detail}


def _timing_metrics(samples: dict[str, list[float]], queries: Counter) -> dict[str, float]:
    metrics = {"setup_s": statistics.median(samples["setup"]) / 1e3}
    for family in GATED_FAMILIES:
        summary = measure.summarize(samples[family])
        if "p90" not in summary:
            raise RuntimeError(
                f"{family}: {summary['n']} samples cannot support p90 "
                f"(loop stopped {LOOP_MARGIN_S} s past --seconds)"
            )
        metrics[f"{family}_ms_p50"] = summary["p50"]
        metrics[f"{family}_ms_p90"] = summary["p90"]
        metrics[f"{family}_qps"] = queries[family] / (sum(samples[family]) / 1e3)
    return metrics


def trace_run(plain_side: Workload, traced_side: Workload) -> tuple[Runner, dict]:
    """Per-layer self times over the reference schedule, and their cost.

    Two instances of the workload (same seed, so same inputs and state)
    run the reference schedule in lockstep, one plain and one with the
    layer spans installed, alternating which goes first.  The host's speed
    drifts on a scale of seconds; interleaving exposes both sides to the
    same drift, so the difference of their summed operation times is the
    tracing overhead rather than noise.
    """
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    plain, traced = Runner(), Runner(tracer)
    plain.setup(plain_side)
    with instrumentation:
        traced.setup(traced_side)
    for side in (plain_side, traced_side):
        for op in _take(side.warmup("warmup"), side.warmup_ops):
            plain.run(op)
    plain.samples.clear()
    traced.samples.clear()

    def run_traced(op: Op) -> None:
        with instrumentation:
            traced.run(op)

    pairs = zip(plain_side.schedule("ops"), traced_side.schedule("ops"))
    for i, (a, b) in enumerate(_take(pairs, plain_side.reference_ops)):
        if i % 2:
            run_traced(b)
            plain.run(a)
        else:
            plain.run(a)
            run_traced(b)

    plain_side.verify_context()
    traced_side.verify_context()
    plain.verify()
    traced.verify()
    traced.merge_outcomes(plain)

    plain_ms = sum(sum(v) for v in plain.samples.values())
    traced_ms = sum(sum(v) for v in traced.samples.values())
    metrics = layer_breakdown(tracer, layer_names())
    metrics.update(traced.counts.metrics())
    executor = traced_side.executor_info()
    metrics["rtree.parallel.workers"] = float(executor["workers"])
    metrics["rtree.parallel.retries"] = float(executor["retries"])
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    metrics["trace.spans"] = float(len(tracer.spans))
    detail = {
        "reference_ops": plain_side.reference_ops,
        "plain_schedule_ms": plain_ms,
        "traced_schedule_ms": traced_ms,
        "overhead_frac": (traced_ms - plain_ms) / plain_ms,
        "traced_setup_ms": sum(
            s.duration_ns for s in tracer.spans if s.name == "bench.setup"
        ) / 1e6,
    }
    return traced, {"metrics": metrics, "detail": detail}


def host_metadata(workload: Workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "kernel_workers": workload.executor_info()["workers"],
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("prepare", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.phase == "prepare":
        workload.prepare()
        return 0
    if args.trace:
        twin = WORKLOADS[args.workload](args.seed, args.workdir)
        runner, result = trace_run(workload, twin)
    else:
        runner, result = plain_run(workload, args.seconds)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": workload.sizes(),
        "host": host_metadata(workload),
        "executor": workload.executor_info(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": dict(runner.errors.most_common(10)),
        **result,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

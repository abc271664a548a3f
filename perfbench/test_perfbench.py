"""Self-tests of the benchmark: trace arithmetic, percentile rule, oracle.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import measure
from perfbench.oracle import SequenceOracle, WindowOracle
from perfbench.spans import Instrumentation, Tracer, layer_breakdown, traced
from perfbench.worker import Runner
from perfbench.workloads import Op, random_walks
from repro.core.engine import SimilarityEngine
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average
from repro.data.relation import SequenceRelation
from repro.data.stocks import make_stock_universe
from repro.subseq.stindex import STIndex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spin(ms: float) -> None:
    end = time.perf_counter() + ms / 1e3
    while time.perf_counter() < end:
        pass


def _nested_tracer() -> Tracer:
    tracer = Tracer()
    leaf = traced(tracer, lambda: _spin(2), "layer.leaf")

    def middle() -> None:
        _spin(1)
        leaf()
        leaf()

    mid = traced(tracer, middle, "layer.middle")
    for _ in range(3):
        with tracer.root("op"):
            _spin(1)
            mid()
    return tracer


def test_spans_of_one_operation_share_an_id_and_nest() -> None:
    tracer = _nested_tracer()
    by_id = {s.span_id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent_id is None]
    assert [s.name for s in roots] == ["bench.op"] * 3
    assert len({s.trace_id for s in roots}) == 3
    for span in tracer.spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert span.trace_id == parent.trace_id
        assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns


def test_self_times_plus_untraced_add_up_to_the_traced_wall_time() -> None:
    tracer = _nested_tracer()
    out = layer_breakdown(tracer, ["layer.unused"])
    layers = sum(v for k, v in out.items() if not k.startswith("trace."))
    assert layers + out["trace.untraced_ms"] == pytest.approx(out["trace.wall_ms"], abs=1e-6)
    assert out["layer.unused_ms"] == 0.0
    assert out["layer.leaf_ms"] >= 6 * 2
    # The middle layer's self time excludes its two leaf calls.
    assert 3 * 1 <= out["layer.middle_ms"] < out["layer.leaf_ms"]


def test_spans_outside_an_operation_are_not_recorded() -> None:
    tracer = Tracer()
    traced(tracer, lambda: None, "layer.x")()
    assert tracer.spans == []


def test_instrumentation_traces_engine_layers_and_restores_them() -> None:
    engine = SimilarityEngine(SequenceRelation.from_matrix(random_walks(3, 300, 64)))
    original = SimilarityEngine.plan
    tracer = Tracer()
    with Instrumentation(tracer):
        with tracer.root("range"):
            engine.plan(QuerySpec(kind="range", series=engine.relation.matrix[0], eps=1.0,
                                  method="index")).execute()
    assert SimilarityEngine.plan is original
    names = {s.name for s in tracer.spans}
    assert {"core.plan.compile", "core.ops.Verify", "core.ops.IndexProbe",
            "rtree.kernel.range", "core.features.verify"} <= names
    assert len({s.trace_id for s in tracer.spans}) == 1


@pytest.mark.parametrize(
    "n, p, ok",
    [(200, 95.0, True), (199, 95.0, False), (100, 90.0, True), (99, 90.0, False),
     (1000, 99.0, True), (999, 99.0, False)],
)
def test_percentile_needs_ten_samples_beyond_it(n: int, p: float, ok: bool) -> None:
    assert measure.supports(n, p) is ok
    assert (measure.samples_beyond(n, p) >= 10) is ok


def test_tail_percentile_picks_p95_only_with_ten_samples_beyond() -> None:
    assert measure.tail_percentile(199) == 90.0
    assert measure.tail_percentile(200) == 95.0
    assert measure.tail_percentile(19) is None
    assert measure.samples_needed(90.0) == 100
    summary = measure.summarize([float(i) for i in range(1, 101)])
    assert summary["p50"] == 50.0 and summary["p90"] == 90.0 and "p95" not in summary


def test_host_clock_scales_by_the_nearby_calibrations() -> None:
    clock = measure.HostClock()  # CALIBRATION_WINDOW_S is 1 s
    clock.stamps = [10.0, 10.5, 11.0, 20.0]
    clock.kernel_ms = [4.0, 8.0, 8.0, 2.0]
    ref = measure.CALIBRATION_REFERENCE_MS
    assert clock.factor(10.6) == pytest.approx(ref / 8.0)  # median of 4, 8, 8
    assert clock.factor(19.5) == pytest.approx(ref / 2.0)
    assert clock.factor(15.0) == pytest.approx(ref / 2.0)  # none near: the next one
    assert clock.factor(30.0) == pytest.approx(ref / 2.0)
    clock.calibrate()
    assert len(clock.kernel_ms) == 5 and clock.kernel_ms[-1] > 0


# ----------------------------------------------------------------------
# the oracle counts wrong answers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_engine() -> tuple[SimilarityEngine, SequenceOracle]:
    walks = random_walks(5, 400, 128)
    return SimilarityEngine(SequenceRelation.from_matrix(walks)), SequenceOracle(walks, 20)


def _count_failures(op: Op) -> int:
    runner = Runner()
    runner.run(op)
    runner.verify()
    return runner.failed


@pytest.mark.parametrize("smooth", [False, True])
def test_oracle_accepts_exact_answers_and_counts_corrupted_ones(small_engine, smooth) -> None:
    engine, oracle = small_engine
    t = moving_average(128, 20) if smooth else None
    q = engine.relation.matrix[7] + np.random.default_rng(0).normal(0, 1, 128)
    spec = QuerySpec(kind="range", series=q, eps=3.0, transformation=t, transform_query=smooth)
    answer = engine.plan(spec).execute()
    knn = engine.plan(QuerySpec(kind="knn", series=q, k=5, transformation=t,
                                transform_query=smooth)).execute()
    assert answer and oracle.check_range(q[None], 3.0, smooth, [answer]) is None
    assert oracle.check_knn(q[None], 5, smooth, [knn]) is None

    def op(result, check) -> Op:
        return Op("range", lambda: (None, result), check)

    range_check = lambda r: oracle.check_range(q[None], 3.0, smooth, [r])  # noqa: E731
    knn_check = lambda r: oracle.check_knn(q[None], 5, smooth, [r])  # noqa: E731
    assert _count_failures(op(answer, range_check)) == 0
    dropped = answer[1:]
    moved = [(answer[0][0], answer[0][1] + 0.01)] + answer[1:]
    outsider = int(np.argmax(oracle.distances(q, smooth)))
    extra = answer + [(outsider, float(oracle.distances(q, smooth)[outsider]))]
    for corrupted in (dropped, moved, extra):
        assert _count_failures(op(corrupted, range_check)) == 1
    assert _count_failures(op(knn[:-1], knn_check)) == 1
    assert _count_failures(op([knn[0]] + [(outsider, knn[1][1])] + knn[2:], knn_check)) == 1


def test_oracle_counts_a_corrupted_join(small_engine) -> None:
    engine, oracle = small_engine
    pairs = engine.plan(QuerySpec(kind="join", eps=4.0)).execute()
    assert pairs and oracle.check_join(4.0, False, pairs) is None
    assert oracle.check_join(4.0, False, pairs[1:]) is not None
    assert oracle.check_join(4.0, False, [(j, i, d) for i, j, d in pairs]) is not None


def test_oracle_counts_corrupted_subsequence_matches() -> None:
    matrix = make_stock_universe(12, 256, seed=3).matrix
    index = STIndex(32)
    index.add_series_many(matrix)
    oracle = WindowOracle(matrix)
    q = matrix[4, 50:100] + np.random.default_rng(1).normal(0, 0.05, 50)
    found = index.plan(QuerySpec(kind="subseq_range", series=q, eps=1.0)).execute()
    nearest = index.plan(QuerySpec(kind="subseq_knn", series=q, k=4)).execute()
    assert found and oracle.check_range(q, 1.0, 12, found) is None
    assert oracle.check_knn(q, 4, 12, nearest) is None
    assert oracle.check_range(q, 1.0, 12, found[1:]) is not None
    assert oracle.check_knn(q, 4, 12, nearest[:3]) is not None


def test_exception_in_an_operation_counts_as_failed() -> None:
    def boom() -> tuple:
        raise ValueError("refused")

    runner = Runner()
    runner.run(Op("range", boom))
    assert (runner.attempted, runner.failed) == (1, 1)


def test_run_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screening", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)

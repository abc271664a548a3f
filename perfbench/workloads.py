"""The three workloads: inputs from a seed, operations, set-up and checks.

Each workload is one caller in a closed loop (the next operation starts
when the previous one returns) against the engine's public API, with the
program's defaults: the spec's default ``method`` and the default kernel
worker count.  Inputs come only from the workload seed.

* ``interactive`` -- single range and k-NN queries on a 10k x 128
  random-walk engine opened from a saved image (load, per-query compile,
  planner routing, probe, verify, scan, k-NN).
* ``screening`` -- fused range and k-NN batches on a 10k x 128 engine
  built in memory, plus Table-1 self-joins on a 2000-stock engine (fused
  kernel frontier, batched verification, engine build).
* ``subseq_ingest`` -- an ST-index over 1024-long stock series that grows
  by appends between single subsequence range and k-NN queries (sub-trail
  build, STR packing and freezing on every append).
"""

from __future__ import annotations

import gc
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from perfbench.oracle import SequenceOracle, WindowOracle
from repro import persist
from repro.core.engine import SimilarityEngine
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average
from repro.data.relation import SequenceRelation
from repro.data.stocks import make_stock_universe
from repro.subseq.stindex import STIndex

LENGTH = 128
MAVG = 20
KNN_K = 10

#: A check maps an operation's result to ``None`` (correct) or a reason.
Check = Callable[[Any], Optional[str]]


@dataclass
class Op:
    """One operation of a workload's schedule.

    ``call`` is the timed part and returns ``(plan, result)`` (``plan`` is
    ``None`` for operations that compile no plan); ``check`` runs after the
    timed loop.  ``queries`` is how many queries the call answers, and
    ``boundary`` marks where the schedule may stop.
    """

    family: str
    call: Callable[[], tuple[Any, Any]]
    check: Optional[Check] = None
    queries: int = 1
    boundary: bool = True


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def random_walks(seed: int, count: int, length: int) -> np.ndarray:
    """The paper's Section-5 walks: uniform start in [20, 99], steps in [-4, 4]."""
    rng = _rng(seed, "walks")
    starts = rng.uniform(20.0, 99.0, size=(count, 1))
    steps = rng.uniform(-4.0, 4.0, size=(count, length - 1))
    return np.cumsum(np.concatenate([starts, steps], axis=1), axis=1)


def _stock_seed(seed: int, stream: str) -> int:
    return int(_rng(seed, stream).integers(1, 2**31))


class Workload:
    """Base class: set-up, schedule and the untimed extras of a workload."""

    name = ""
    #: Timed set-ups before the loop and again after it; ``setup_s`` is
    #: the median of them all.
    setup_repeats = 6
    #: Operations the trace run replays (whole cycles of the schedule).
    reference_ops = 0
    #: Warm-up operations before timing (lazy estimator, caches).
    warmup_ops = 6

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.mavg = moving_average(LENGTH, MAVG)

    def prepare(self) -> None:
        """Untimed preparation, run in its own process before measuring."""

    def setup(self) -> Any:
        """The timed set-up: everything until the first query can run."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop what :meth:`setup` built, untimed, before it runs again.

        A caller that rebuilds holds one engine, not the old one beside
        the new, so neither the set-up time nor ``peak_rss_mb`` counts the
        previous copy.
        """
        gc.collect()

    def schedule(self, stream: str) -> Iterator[Op]:
        raise NotImplementedError

    def warmup(self, stream: str) -> Iterator[Op]:
        """Operations run before timing; the schedule's by default."""
        return self.schedule(stream)

    def verify_context(self) -> None:
        """Build the oracle (after the timed loop and the memory reading)."""

    def sizes(self) -> dict:
        raise NotImplementedError

    def extras(self, samples: dict[str, list[float]]) -> dict:
        """Workload-specific metrics for the record."""
        return {}

    def executor_info(self) -> dict:
        return {"workers": 1, "retries": 0}


class _SequenceWorkload(Workload):
    """Shared pieces of the two workloads over 10k x 128 random walks."""

    count = 10_000

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.walks = random_walks(seed, self.count, LENGTH)
        self.engine: Optional[SimilarityEngine] = None
        self.oracle: Optional[SequenceOracle] = None

    def verify_context(self) -> None:
        self.oracle = SequenceOracle(self.walks, MAVG)

    def release(self) -> None:
        self.engine = None
        super().release()

    def _queries(self, rng: np.random.Generator, m: int) -> np.ndarray:
        rows = rng.integers(0, self.count, size=m)
        return self.walks[rows] + rng.normal(0.0, 1.0, size=(m, LENGTH))

    def _spec(self, kind: str, queries: np.ndarray, smooth: bool, **kw: Any) -> QuerySpec:
        return QuerySpec(
            kind=kind, series=queries if queries.shape[0] > 1 else queries[0],
            transformation=self.mavg if smooth else None, transform_query=smooth, **kw,
        )

    @staticmethod
    def _answers(queries: np.ndarray, result: Any) -> list:
        return result if queries.shape[0] > 1 else [result]

    def _range(self, queries: np.ndarray, eps: float, smooth: bool) -> Op:
        spec = self._spec("range", queries, smooth, eps=eps)
        return Op(
            "range", lambda: self._execute(spec),
            lambda r: self.oracle.check_range(queries, eps, smooth, self._answers(queries, r)),
            queries.shape[0],
        )

    def _knn(self, queries: np.ndarray, smooth: bool) -> Op:
        spec = self._spec("knn", queries, smooth, k=KNN_K)
        return Op(
            "knn", lambda: self._execute(spec),
            lambda r: self.oracle.check_knn(queries, KNN_K, smooth, self._answers(queries, r)),
            queries.shape[0],
        )

    def _execute(self, spec: QuerySpec) -> tuple[Any, Any]:
        plan = self.engine.plan(spec)
        return plan, plan.execute()

    def executor_info(self) -> dict:
        return self.engine.executor.describe()


class Interactive(_SequenceWorkload):
    """Single queries against an engine opened from a saved image."""

    name = "interactive"
    reference_ops = 300
    #: Two range queries per k-NN query.  One range query in five is broad:
    #: its eps crosses Figure 12's crossover, so the planner sends nearly
    #: all of them to the sequential scan.  Three in ten range queries and
    #: three in ten k-NN queries use ``T_mavg20`` (all of them selective
    #: range queries: broad smoothed queries cost several times more, and
    #: the spread of that cost would swamp the run-to-run figures).
    selective_eps = (1.0, 1.5, 2.0)
    selective_eps_smooth = (0.5, 1.0, 1.5)
    broad_eps = 4.5

    def schedule(self, stream: str) -> Iterator[Op]:
        rng = _rng(self.seed, stream)
        ranges = knns = 0
        eps = {False: itertools.cycle(self.selective_eps),
               True: itertools.cycle(self.selective_eps_smooth)}
        for i in itertools.count():
            q = self._queries(rng, 1)
            if i % 3 == 2:
                yield self._knn(q, smooth=knns % 10 in (1, 4, 7))
                knns += 1
                continue
            j, ranges = ranges, ranges + 1
            if j % 5 == 4:
                yield self._range(q, self.broad_eps, smooth=False)
                continue
            smooth = j % 20 in (1, 3, 6, 8, 11, 13)
            yield self._range(q, next(eps[smooth]), smooth)

    @property
    def image(self) -> str:
        return os.path.join(self.workdir, "image")

    def prepare(self) -> None:
        engine = SimilarityEngine(SequenceRelation.from_matrix(self.walks))
        persist.save_engine(engine, self.image)
        size = sum(
            os.path.getsize(os.path.join(self.image, f)) for f in os.listdir(self.image)
        )
        with open(os.path.join(self.workdir, "image.json"), "w") as fh:
            json.dump({"image_bytes": size, "raw_bytes": int(self.walks.nbytes)}, fh)

    def setup(self) -> Any:
        self.engine = persist.load_engine(self.image)
        return self.engine

    def sizes(self) -> dict:
        return {"series": self.count, "length": LENGTH, "knn_k": KNN_K}

    def extras(self, samples: dict[str, list[float]]) -> dict:
        with open(os.path.join(self.workdir, "image.json")) as fh:
            image = json.load(fh)
        return {"image_bytes_ratio": image["image_bytes"] / image["raw_bytes"]}


class Screening(_SequenceWorkload):
    """Fused batches on an in-memory engine plus Table-1 self-joins."""

    name = "screening"
    stocks = 2000
    range_batch = 32
    knn_batch = 8
    warmup_ops = 3
    #: One cycle: ten range batches and ten k-NN batches, then a join.
    cycle = 21
    reference_ops = 3 * 21
    range_eps = (1.0, 1.5, 2.0, 2.5)
    range_eps_smooth = (0.5, 1.0, 1.5)
    #: Each Table-1 join's eps is the distance of this many-th closest pair
    #: of the universe (with and without T_mavg20), so the join's output --
    #: and with it its cost and memory -- does not swing with how strongly
    #: a seed's synthetic sectors cluster.
    join_pairs = 300

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.universe = make_stock_universe(
            self.stocks, LENGTH, seed=_stock_seed(seed, "stocks")
        ).matrix
        self.stock_engine: Optional[SimilarityEngine] = None
        self.stock_oracle: Optional[SequenceOracle] = None
        pairs = SequenceOracle(self.universe, MAVG)
        self.join_eps = {
            smooth: pairs.pair_distance_quantile(smooth, self.join_pairs)
            for smooth in (False, True)
        }

    def setup(self) -> Any:
        self.engine = SimilarityEngine(SequenceRelation.from_matrix(self.walks))
        self.stock_engine = SimilarityEngine(SequenceRelation.from_matrix(self.universe))
        return self.engine

    def release(self) -> None:
        self.stock_engine = None
        super().release()

    def verify_context(self) -> None:
        super().verify_context()
        self.stock_oracle = SequenceOracle(self.universe, MAVG)

    def _join(self, smooth: bool) -> Op:
        eps = self.join_eps[smooth]
        spec = QuerySpec(kind="join", eps=eps, transformation=self.mavg if smooth else None)

        def call() -> tuple[Any, Any]:
            plan = self.stock_engine.plan(spec)
            return plan, plan.execute()

        return Op(
            "join", call, lambda pairs: self.stock_oracle.check_join(eps, smooth, pairs)
        )

    def schedule(self, stream: str) -> Iterator[Op]:
        rng = _rng(self.seed, stream)
        eps = {False: itertools.cycle(self.range_eps),
               True: itertools.cycle(self.range_eps_smooth)}
        i = 0
        while True:
            pos = i % self.cycle
            smooth = (i // 2) % 3 == 2
            if pos == self.cycle - 1:
                yield self._join((i // self.cycle) % 2 == 1)
            elif pos % 2 == 0:
                queries = self._queries(rng, self.range_batch)
                yield self._range(queries, next(eps[smooth]), smooth)
            else:
                yield self._knn(self._queries(rng, self.knn_batch), smooth)
            i += 1

    def sizes(self) -> dict:
        return {
            "series": self.count, "length": LENGTH, "stocks": self.stocks,
            "range_batch": self.range_batch, "knn_batch": self.knn_batch,
            "knn_k": KNN_K, "join_eps": [self.join_eps[False], self.join_eps[True]],
        }

    def extras(self, samples: dict[str, list[float]]) -> dict:
        joins = samples.get("join", [])
        return {"join_s": float(np.median(joins)) / 1e3} if joins else {}


class SubseqIngest(Workload):
    """Appends to an ST-index between single subsequence queries."""

    name = "subseq_ingest"
    window = 32
    series = 240
    series_length = 1024
    append_batch = 20
    #: Queries after each append: this many range and this many k-NN.
    queries_per_append = 10
    #: Every cycle's rebuild adds a set-up sample, so four on each side of
    #: the loop suffice.
    setup_repeats = 4
    warmup_ops = 4
    #: A range query's eps is the distance of its 5th, 20th or 80th nearest
    #: indexed window, so answer sizes do not swing with the price levels
    #: and volatility of a seed's synthetic stocks.
    range_ranks = (5, 20, 80)
    query_lengths = (32, 40, 48, 56, 64)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.matrix = make_stock_universe(
            self.series, self.series_length, seed=_stock_seed(seed, "stocks")
        ).matrix
        self.index: Optional[STIndex] = None
        self.oracle = WindowOracle(self.matrix)
        appends = (self.series - self.series // 2) // self.append_batch
        #: One cycle: each append and its queries, then a rebuild.
        self.reference_ops = appends * (1 + 2 * self.queries_per_append) + 1

    def setup(self) -> Any:
        index = STIndex(self.window)
        index.add_series_many(self.matrix[: self.series // 2])
        index.kernel
        self.index = index
        return index

    def release(self) -> None:
        self.index = None
        super().release()

    def _append(self, lo: int, hi: int) -> Op:
        def call() -> tuple[Any, Any]:
            self.index.add_series_many(self.matrix[lo:hi])
            self.index.kernel
            return None, self.index.num_series

        def check(count: Any) -> Optional[str]:
            return None if count == hi else f"index holds {count} series, expected {hi}"

        return Op("ingest", call, check)

    def _execute(self, spec: QuerySpec) -> tuple[Any, Any]:
        plan = self.index.plan(spec)
        return plan, plan.execute()

    def _query(
        self, rng: np.random.Generator, knn: bool, indexed: int, length: int, rank: int
    ) -> Op:
        s = int(rng.integers(0, indexed))
        o = int(rng.integers(0, self.series_length - length + 1))
        q = self.matrix[s, o:o + length] + rng.normal(0.0, 0.1, size=length)
        if knn:
            spec = QuerySpec(kind="subseq_knn", series=q, k=KNN_K)
            return Op(
                "knn", lambda: self._execute(spec),
                lambda r: self.oracle.check_knn(q, KNN_K, indexed, r),
            )
        eps = float(np.partition(self.oracle.distances(q, indexed), rank)[rank])
        spec = QuerySpec(kind="subseq_range", series=q, eps=eps)
        return Op(
            "range", lambda: self._execute(spec),
            lambda r: self.oracle.check_range(q, eps, indexed, r),
        )

    def _rebuild(self) -> Op:
        def call() -> tuple[Any, Any]:
            self.setup()
            return None, self.index.num_series

        return Op("setup", call)

    def schedule(self, stream: str) -> Iterator[Op]:
        rng = _rng(self.seed, stream)
        lengths, ranks = self._strata()
        half = self.series // 2
        while True:
            for lo in range(half, self.series, self.append_batch):
                hi = lo + self.append_batch
                unit = [self._append(lo, hi)] + [
                    self._query(rng, knn, hi, next(lengths), next(ranks))
                    for _ in range(self.queries_per_append)
                    for knn in (False, True)
                ]
                # A run may stop only once an append's queries are done.
                for op in unit[:-1]:
                    op.boundary = False
                yield from unit
            self.release()  # runs between operations, so untimed
            yield self._rebuild()

    def warmup(self, stream: str) -> Iterator[Op]:
        """Queries on the freshly set-up index (no appends)."""
        rng = _rng(self.seed, stream)
        lengths, ranks = self._strata()
        while True:
            for knn in (False, True):
                yield self._query(rng, knn, self.index.num_series, next(lengths), next(ranks))

    def _strata(self) -> tuple[Iterator[int], Iterator[int]]:
        """Query lengths and range ranks, in rotation (seeds vary the rest)."""
        return itertools.cycle(self.query_lengths), itertools.cycle(self.range_ranks)

    def sizes(self) -> dict:
        return {
            "series": self.series, "series_length": self.series_length,
            "initial_series": self.series // 2, "append_batch": self.append_batch,
            "window": self.window, "query_lengths": list(self.query_lengths),
            "knn_k": KNN_K,
        }

    def extras(self, samples: dict[str, list[float]]) -> dict:
        ingest = samples.get("ingest", [])
        return {"ingest_ms_p50": float(np.median(ingest))} if ingest else {}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Interactive, Screening, SubseqIngest)
}

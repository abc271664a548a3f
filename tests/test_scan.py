"""Tests for the tuned sequential-scan baselines."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.engine import SimilarityEngine
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average, reverse, time_warp
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.scan import scan_knn, scan_knn_many, scan_range, scan_range_many
from repro.storage.budget import QueryBudgetExceeded, ResourceBudget
from repro.storage.stats import IOStats


@pytest.fixture(scope="module")
def engine():
    rel = SequenceRelation.from_matrix(random_walks(120, 64, seed=77))
    return SimilarityEngine(rel)


class TestScanRange:
    @pytest.mark.parametrize("early", [True, False])
    @pytest.mark.parametrize("use_t", [False, True])
    def test_matches_index_answers(self, engine, early, use_t):
        """Index and scan must return exactly the same answer set."""
        t = moving_average(64, 10) if use_t else None
        q = engine.relation.get(5)
        via_index = engine.range_query(q, 4.0, transformation=t)
        via_scan = scan_range(
            engine.ground_spectra,
            engine.query_spectrum(q),
            4.0,
            transformation=t,
            early_abandon=early,
        )
        assert [(r, round(d, 8)) for r, d in via_index] == [
            (r, round(d, 8)) for r, d in via_scan
        ]

    def test_counts_all_records_as_computations(self, engine):
        stats = IOStats()
        scan_range(
            engine.ground_spectra,
            engine.query_spectrum(engine.relation.get(0)),
            1.0,
            stats=stats,
        )
        assert stats.distance_computations == len(engine.relation)

    def test_empty_answer(self, engine):
        got = scan_range(
            engine.ground_spectra,
            engine.query_spectrum(engine.relation.get(0)) + 1e6,
            0.5,
        )
        assert got == []


class TestScanKnn:
    @pytest.mark.parametrize("k", [1, 4, 20])
    def test_matches_engine_knn(self, engine, k):
        q = engine.relation.get(33)
        a = engine.knn_query(q, k)
        b = scan_knn(engine.ground_spectra, engine.query_spectrum(q), k)
        assert np.allclose([d for _, d in a], [d for _, d in b], atol=1e-9)

    def test_with_transformation(self, engine):
        t = reverse(64)
        q = engine.relation.get(10)
        a = engine.knn_query(q, 5, transformation=t)
        b = scan_knn(engine.ground_spectra, engine.query_spectrum(q), 5, transformation=t)
        assert np.allclose([d for _, d in a], [d for _, d in b], atol=1e-9)

    def test_invalid_k(self, engine):
        with pytest.raises(ValueError):
            scan_knn(engine.ground_spectra, engine.ground_spectra[0], -1)

    def test_k_zero_returns_empty(self, engine):
        assert scan_knn(engine.ground_spectra, engine.ground_spectra[0], 0) == []

    def test_k_larger_than_relation(self, engine):
        got = scan_knn(engine.ground_spectra, engine.query_spectrum(engine.relation.get(0)), 10_000)
        assert len(got) == len(engine.relation)


# ----------------------------------------------------------------------
# parity: scan_range == scan_range_many row == plain-numpy brute force
# ----------------------------------------------------------------------
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

TRANSFORMS = {
    "none": lambda n: None,
    "mavg": lambda n: moving_average(n, 3),
    "time_warp": lambda n: time_warp(n, 2),  # non-Hermitian stretch vector
}

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def scan_cases(draw):
    """Complex record spectra (possibly none, possibly duplicated rows), a
    query near one of them, and a transformation."""
    m = draw(st.integers(0, 12))
    n = draw(st.sampled_from([8, 16]))
    parts = draw(
        hnp.arrays(np.float64, (2, m, n), elements=st.floats(-4, 4, **finite))
    )
    spectra = parts[0] + 1j * parts[1]
    if m > 1:
        # Exact duplicates put genuine ties on the k-NN boundary.
        src = draw(st.lists(st.integers(0, m - 1), max_size=3))
        dst = draw(st.lists(st.integers(0, m - 1), min_size=len(src), max_size=len(src)))
        spectra[dst] = spectra[src]
    noise = draw(
        hnp.arrays(np.float64, (2, n), elements=st.floats(-2, 2, **finite))
    )
    base = spectra[draw(st.integers(0, m - 1))] if m else np.zeros(n, complex)
    query = base + noise[0] + 1j * noise[1]
    tname = draw(st.sampled_from(sorted(TRANSFORMS)))
    return spectra, query, tname, TRANSFORMS[tname](n)


def brute_distances(spectra, query, t):
    """Every record's distance to the query, straight from the definition."""
    rows = spectra if t is None else t.a * spectra + t.b
    return np.sqrt(np.sum(np.abs(rows - query) ** 2, axis=1))


def separated(values, cut, rel=1e-9):
    """True when no value sits within rounding reach of ``cut``."""
    return bool(np.all(np.abs(values - cut) > rel * max(1.0, cut)))


class TestScanParity:
    @SETTINGS
    @given(case=scan_cases(), eps=st.floats(0.0, 20.0, **finite))
    def test_range_matches_batch_and_brute_force(self, case, eps):
        spectra, query, _, t = case
        got = scan_range(spectra, query, eps, transformation=t)
        (batch,) = scan_range_many(spectra, query[None, :], eps, transformation=t)
        # Block-wise transformation is exactly the hoisted one.
        assert got == batch
        want = brute_distances(spectra, query, t)
        assume(separated(want, eps))
        assert [i for i, _ in got] == sorted(
            np.flatnonzero(want <= eps).tolist(), key=lambda i: (want[i], i)
        )
        assert np.allclose([d for _, d in got], want[[i for i, _ in got]],
                           rtol=1e-12, atol=1e-12)

    @SETTINGS
    @given(case=scan_cases(), eps=st.floats(0.0, 20.0, **finite))
    def test_naive_scan_matches_abandoning_scan(self, case, eps):
        spectra, query, _, t = case
        want = brute_distances(spectra, query, t)
        assume(separated(want, eps))
        fast = scan_range(spectra, query, eps, transformation=t)
        naive = scan_range(spectra, query, eps, transformation=t, early_abandon=False)
        assert [i for i, _ in naive] == [i for i, _ in fast]
        assert np.allclose([d for _, d in naive], [d for _, d in fast], rtol=1e-12)

    @SETTINGS
    @given(case=scan_cases(), k=st.integers(0, 15))
    def test_knn_matches_batch_and_brute_force(self, case, k):
        spectra, query, _, t = case
        got = scan_knn(spectra, query, k, transformation=t)
        (batch,) = scan_knn_many(spectra, query[None, :], k, transformation=t)
        assert got == batch
        m = spectra.shape[0]
        assert len(got) == min(k, m)
        if not got:
            return
        want = brute_distances(spectra, query, t)
        # Distinct distances must be resolvable at the boundary; exact ties
        # (duplicate rows) must resolve to the smallest id.
        kth = want[got[-1][0]]
        rivals = want[want != kth]
        assume(separated(rivals, kth))
        expected = sorted(range(m), key=lambda i: (want[i], i))[:k]
        assert [i for i, _ in got] == expected
        assert np.allclose([d for _, d in got], want[expected], rtol=1e-12, atol=1e-12)
        # Distances are the range kernel's, bit for bit (the radius is
        # widened past sqrt/square rounding so the k-th row stays in).
        ranged = dict(scan_range(spectra, query, got[-1][1] * (1 + 1e-12), transformation=t))
        assert all(ranged[i] == d for i, d in got)


class TestScanEdgeCases:
    def test_duplicate_rows_at_kth_boundary_keep_smallest_ids(self):
        rng = np.random.default_rng(5)
        spectra = rng.normal(size=(10, 8)) + 1j * rng.normal(size=(10, 8))
        query = spectra[0] + 0.5
        spectra[[6, 2, 8]] = spectra[0] + 0.25  # three-way tie, nearest rows
        spectra[0] = query + 100.0
        for k in (1, 2):
            got = scan_knn(spectra, query, k)
            assert [i for i, _ in got] == [2, 6][:k]
            assert len({d for _, d in got}) == 1

    @pytest.mark.parametrize("tname", sorted(TRANSFORMS))
    def test_k_larger_than_relation_returns_all_sorted(self, tname):
        rng = np.random.default_rng(1)
        spectra = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        t = TRANSFORMS[tname](8)
        got = scan_knn(spectra, spectra[3], 50, transformation=t)
        want = brute_distances(spectra, spectra[3], t)
        assert [i for i, _ in got] == sorted(range(6), key=lambda i: (want[i], i))

    def test_k_zero_and_empty_relation(self):
        empty = np.zeros((0, 8), dtype=complex)
        q = np.ones(8, dtype=complex)
        stats = IOStats()
        assert scan_knn(empty, q, 3, stats=stats) == []
        assert scan_knn(np.ones((4, 8), complex), q, 0, stats=stats) == []
        assert scan_knn_many(empty, q[None, :], 3) == [[]]
        assert scan_knn_many(np.ones((4, 8), complex), q[None, :], 0) == [[]]
        assert scan_range(empty, q, 10.0) == []
        assert scan_range(empty, q, 10.0, early_abandon=False) == []
        assert scan_range_many(empty, q[None, :], 10.0) == [[]]
        with pytest.raises(ValueError):
            scan_knn_many(empty, q[None, :], -1)
        assert stats.distance_computations == 0

    @pytest.mark.parametrize("early", [True, False])
    def test_row_exactly_at_eps_is_included(self, early):
        query = np.arange(8, dtype=float) + 1j
        spectra = np.stack([query + 100.0, query, query])
        spectra[2, 3] += 3 + 4j  # |3 + 4i| = 5: distance exactly 5.0
        got = scan_range(spectra, query, 5.0, early_abandon=early)
        assert got == [(1, 0.0), (2, 5.0)]
        below = scan_range(spectra, query, np.nextafter(5.0, 0.0), early_abandon=early)
        assert below == [(1, 0.0)]


# ----------------------------------------------------------------------
# the planner's scan route (SeqScan operator)
# ----------------------------------------------------------------------
class TestSeqScanRoute:
    def broad(self, engine, budget=None):
        return engine.plan(
            QuerySpec(kind="range", series=engine.relation.get(7), eps=50.0,
                      method="auto", budget=budget)
        )

    def test_broad_auto_query_takes_the_scan(self, engine):
        plan = self.broad(engine)
        assert plan.explain()["access_path"] == "scan"
        assert plan.root.__class__.__name__ == "SeqScan"
        assert [i for i, _ in plan.execute()] == [
            i for i, _ in engine.plan(
                QuerySpec(kind="range", series=engine.relation.get(7), eps=50.0,
                          method="index")
            ).execute()
        ]

    def test_expired_budget_refused_at_entry(self, engine):
        # execute() arms the 0.1 µs deadline; it has passed by the time
        # SeqScan checks it on entry.
        plan = self.broad(engine, ResourceBudget(deadline_ms=0.0001))
        assert plan.explain()["access_path"] == "scan"
        before = engine.stats.distance_computations
        with pytest.raises(QueryBudgetExceeded) as exc:
            plan.execute()
        assert exc.value.kind == "deadline"
        assert engine.stats.distance_computations == before  # nothing scanned

    @pytest.mark.parametrize(
        "spec",
        [
            dict(kind="range", eps=50.0, method="auto"),
            dict(kind="range", eps=2.0, method="scan",
                 transformation=moving_average(64, 10)),
            dict(kind="knn", k=5, method="scan"),
            dict(kind="knn", k=5, method="scan", transformation=reverse(64)),
        ],
        ids=["range-auto", "range-mavg", "knn", "knn-reverse"],
    )
    @pytest.mark.parametrize("batch", [False, True])
    def test_explain_counts_m_distance_computations_per_query(self, engine, spec, batch):
        m = len(engine.relation)
        queries = 3 if batch else 1
        series = (
            [engine.relation.get(i) for i in range(queries)]
            if batch else engine.relation.get(0)
        )
        plan = engine.plan(QuerySpec(series=series, **spec))
        before = engine.stats.distance_computations
        plan.execute()
        assert engine.stats.distance_computations - before == m * queries
        node = plan.explain()["plan"]
        assert node["op"] == "SeqScan"
        assert node["io"] == {"distance_computations": m * queries}

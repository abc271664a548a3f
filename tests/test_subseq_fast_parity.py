"""Parity suite for the columnar subsequence pipeline.

Asserts that the fast path (STR bulk-load + frozen kernel probe +
array candidate expansion + matrix refine) agrees with the recursive
scalar reference path and with the exhaustive ``brute_force`` scan —
the same ``(series_id, offset, distance)`` triples — across grouping
policies, build modes, query lengths and ``eps`` regimes, and that the
batched ``range_query_batch`` equals a per-query loop.
"""

import numpy as np
import pytest

from repro.core.similarity import batch_euclidean_within
from repro.rtree.bulk import str_pack_rects
from repro.rtree.geometry import Rect
from repro.subseq import STIndex


def build_index(rng, grouping="adaptive", num=12, length=100, window=8, **kw):
    idx = STIndex(window=window, k=3, grouping=grouping, chunk=8, **kw)
    for _ in range(num):
        idx.add_series(np.cumsum(rng.uniform(-1, 1, size=length)))
    return idx


def reference_groups(points, grouping, chunk):
    """Scalar sub-trail grouping, one Python step per trail point: the
    oracle for ``STIndex._group_starts``."""
    m = points.shape[0]
    if grouping == "fixed":
        return [(s, min(s + chunk - 1, m - 1)) for s in range(0, m, chunk)]
    groups = []
    start = 0
    lo = points[0].copy()
    hi = points[0].copy()
    margin = 0.0
    count = 1
    for i in range(1, m):
        new_lo = np.minimum(lo, points[i])
        new_hi = np.maximum(hi, points[i])
        new_margin = float(np.sum(new_hi - new_lo))
        grown_cost = new_margin / (count + 1)
        old_cost = margin / count if count else 0.0
        if count >= chunk or (
            count >= 4 and old_cost > 0 and grown_cost > 1.3 * old_cost
        ):
            groups.append((start, i - 1))
            start = i
            lo = points[i].copy()
            hi = points[i].copy()
            margin = 0.0
            count = 1
        else:
            lo, hi = new_lo, new_hi
            margin = new_margin
            count += 1
    groups.append((start, m - 1))
    return groups


def triples(matches):
    return [(m.series_id, m.offset, round(m.distance, 9)) for m in matches]


def offsets(matches):
    return [(m.series_id, m.offset) for m in matches]


class TestFastEqualsReferenceEqualsBrute:
    @pytest.mark.parametrize("grouping", ["fixed", "adaptive"])
    def test_window_length_queries(self, rng, grouping):
        idx = build_index(rng, grouping)
        q = idx.series(3)[10:18].copy()
        for eps in [0.0, 0.5, 2.0, 5.0]:
            fast = idx.range_query(q, eps)
            ref = idx.range_query_reference(q, eps)
            brute = idx.brute_force(q, eps)
            assert triples(fast) == triples(ref) == triples(brute)

    @pytest.mark.parametrize("grouping", ["fixed", "adaptive"])
    def test_multipiece_queries(self, rng, grouping):
        idx = build_index(rng, grouping)
        for qlen in [16, 21, 32]:  # 2 pieces, 2 pieces + tail, 4 pieces
            q = idx.series(5)[4 : 4 + qlen].copy()
            for eps in [0.5, 2.0, 6.0]:
                fast = idx.range_query(q, eps)
                ref = idx.range_query_reference(q, eps)
                brute = idx.brute_force(q, eps)
                assert triples(fast) == triples(ref) == triples(brute)

    def test_eps_zero_exact_match(self, rng):
        idx = build_index(rng)
        q = idx.series(0)[20:28].copy()
        fast = idx.range_query(q, 0.0)
        assert (0, 20) in offsets(fast)
        assert fast[0].distance == pytest.approx(0.0)
        assert offsets(fast) == offsets(idx.range_query_reference(q, 0.0))
        assert offsets(fast) == offsets(idx.brute_force(q, 0.0))

    def test_eps_zero_multipiece_exact_match(self, rng):
        idx = build_index(rng)
        q = idx.series(2)[6:30].copy()  # 3 pieces of 8
        fast = idx.range_query(q, 0.0)
        assert (2, 6) in offsets(fast)
        assert offsets(fast) == offsets(idx.brute_force(q, 0.0))

    @pytest.mark.parametrize("grouping", ["fixed", "adaptive"])
    def test_property_sweep(self, grouping):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            idx = build_index(rng, grouping, num=6, length=60)
            qlen = int(rng.integers(8, 30))
            src = idx.series(int(rng.integers(0, 6)))
            start = int(rng.integers(0, len(src) - qlen))
            q = src[start : start + qlen] + rng.normal(0, 0.1, size=qlen)
            eps = float(rng.uniform(0.1, 6.0))
            assert triples(idx.range_query(q, eps)) == triples(
                idx.brute_force(q, eps)
            )


class TestCandidatePhase:
    def test_candidate_offsets_match_reference_expansion(self, rng):
        idx = build_index(rng, num=8)
        for qlen, eps in [(8, 1.0), (20, 2.0), (24, 0.5)]:
            src = idx.series(1)
            q = src[2 : 2 + qlen] + rng.normal(0, 0.05, qlen)
            series, aligned = idx.candidate_offsets(q, eps)
            got = set(zip(series.tolist(), aligned.tolist()))
            want = idx._multipiece_candidates(np.asarray(q), eps)
            assert got == want
            # series-major, offset-minor ordering (the packed-key contract)
            keys = series * idx._offset_stride + aligned
            assert np.all(np.diff(keys) > 0)

    def test_empty_index(self):
        idx = STIndex(window=8)
        series, aligned = idx.candidate_offsets(np.zeros(8), 1.0)
        assert series.size == 0 and aligned.size == 0
        assert idx.range_query(np.zeros(8), 1.0) == []


class TestBatchedQueries:
    def test_batch_equals_per_query_loop(self, rng):
        idx = build_index(rng, num=10)
        queries = []
        for _ in range(7):
            sid = int(rng.integers(0, idx.num_series))
            src = idx.series(sid)
            qlen = int(rng.integers(8, 25))
            start = int(rng.integers(0, len(src) - qlen))
            queries.append(src[start : start + qlen] + rng.normal(0, 0.05, qlen))
        eps = 2.0
        batch = idx.range_query_batch(queries, eps)
        loop = [idx.range_query(q, eps) for q in queries]
        assert [triples(b) for b in batch] == [triples(l) for l in loop]

    def test_mixed_length_batch(self, rng):
        idx = build_index(rng)
        qs = [idx.series(0)[0:8].copy(), idx.series(1)[3:27].copy()]
        batch = idx.range_query_batch(qs, 1.0)
        assert triples(batch[0]) == triples(idx.brute_force(qs[0], 1.0))
        assert triples(batch[1]) == triples(idx.brute_force(qs[1], 1.0))

    def test_empty_batch(self, rng):
        idx = build_index(rng)
        assert idx.range_query_batch([], 1.0) == []

    def test_batch_validation(self, rng):
        idx = build_index(rng)
        with pytest.raises(ValueError):
            idx.range_query_batch([np.zeros(4)], 1.0)
        with pytest.raises(ValueError):
            idx.range_query_batch([np.zeros(8)], -1.0)


class TestBuildModes:
    @pytest.mark.parametrize("grouping", ["fixed", "adaptive"])
    def test_bulk_and_insert_builds_agree(self, grouping):
        rng = np.random.default_rng(7)
        bulk = build_index(rng, grouping, build="bulk")
        rng = np.random.default_rng(7)
        insert = build_index(rng, grouping, build="insert")
        assert bulk.num_subtrails == insert.num_subtrails
        q = bulk.series(4)[11:19].copy()
        for eps in [0.0, 1.0, 3.0]:
            assert triples(bulk.range_query(q, eps)) == triples(
                insert.range_query(q, eps)
            )
            assert triples(insert.range_query(q, eps)) == triples(
                insert.range_query_reference(q, eps)
            )

    def test_incremental_add_after_query_reseals(self, rng):
        idx = build_index(rng, num=4)
        q = idx.series(0)[5:13].copy()
        before = idx.range_query(q, 2.0)
        idx.add_series(np.concatenate([q, q[::-1], q]))  # contains q at offset 0
        after = idx.range_query(q, 2.0)
        assert triples(after) == triples(idx.brute_force(q, 2.0))
        assert len(after) > len(before)

    def test_bad_build_mode_rejected(self):
        with pytest.raises(ValueError):
            STIndex(window=8, build="magic")


class TestGroupingParity:
    @pytest.mark.parametrize("grouping", ["fixed", "adaptive"])
    def test_vectorized_groups_match_scalar_reference(self, grouping):
        from repro.subseq.window import encode_rect, sliding_features

        for seed in range(8):
            rng = np.random.default_rng(seed)
            for length, window, chunk in [(60, 8, 8), (200, 16, 16), (33, 8, 4)]:
                idx = STIndex(window=window, k=3, grouping=grouping, chunk=chunk)
                x = np.cumsum(rng.uniform(-1, 1, size=length))
                points = encode_rect(sliding_features(x, window, 3))
                starts = idx._group_starts(points)
                ends = np.append(starts[1:] - 1, points.shape[0] - 1)
                assert list(zip(starts.tolist(), ends.tolist())) == reference_groups(
                    points, grouping, chunk
                )

    def test_single_point_trail(self):
        idx = STIndex(window=8, chunk=4)
        sid = idx.add_series(np.arange(8.0))  # exactly one window offset
        assert idx.num_subtrails == 1
        got = idx.range_query(np.arange(8.0), 0.0)
        assert offsets(got) == [(sid, 0)]


class TestStrPackRects:
    def test_search_matches_linear_scan(self, rng):
        lows = rng.uniform(0, 50, size=(300, 3))
        highs = lows + rng.uniform(0, 2, size=(300, 3))
        tree = str_pack_rects(lows, highs, max_entries=8)
        assert len(tree) == 300
        probe = Rect(np.full(3, 10.0), np.full(3, 20.0))
        got = sorted(e.child for e in tree.search(probe))
        want = sorted(
            i
            for i in range(300)
            if np.all(lows[i] <= probe.highs) and np.all(probe.lows <= highs[i])
        )
        assert got == want

    def test_empty_and_mismatch(self):
        tree = str_pack_rects(np.empty((0, 2)), np.empty((0, 2)))
        assert len(tree) == 0
        with pytest.raises(ValueError):
            str_pack_rects(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            str_pack_rects(np.zeros((3, 2)), np.zeros((3, 2)), record_ids=[1, 2])


class TestRealDtypeVerifier:
    def test_real_path_matches_complex_path(self, rng):
        matrix = rng.normal(size=(40, 24))
        q = rng.normal(size=24)
        for eps in [0.0, 0.5, 3.0, 50.0]:
            kept_r, d_r, ab_r = batch_euclidean_within(matrix, q, eps)
            kept_c, d_c, ab_c = batch_euclidean_within(
                matrix.astype(np.complex128), q.astype(np.complex128), eps
            )
            assert np.array_equal(kept_r, kept_c)
            assert np.array_equal(d_r, d_c)
            assert ab_r == ab_c

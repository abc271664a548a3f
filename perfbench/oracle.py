"""Answer oracle: plain numpy distances, independent of the engine.

Whole-sequence answers are checked against Euclidean distances between
normal forms ``(x - mean) / std``, with the circular moving average applied
in the time domain where the query uses ``T_mavg``; subsequence answers
against raw window distances.  Nothing here calls the engine, so a defect
in its spectra, transformations, index or verification shows as a
mismatch.

Every check returns ``None`` for a correct answer and a one-line reason
otherwise.  Distances agree within :data:`TOL`; a record closer to the
threshold than that may be returned or not.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

#: Absolute distance tolerance between the engine and the oracle.
TOL = 1e-6
#: Margin within which an approximate oracle distance is recomputed exactly.
SLACK = 1e-4

ExactFn = Callable[[np.ndarray], np.ndarray]


def normal_forms(matrix: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    std = rows.std(axis=1, keepdims=True)
    out = (rows - rows.mean(axis=1, keepdims=True)) / np.where(std > 1e-12, std, 1.0)
    out[std[:, 0] <= 1e-12] = 0.0
    return out


def circular_moving_average(matrix: np.ndarray, window: int) -> np.ndarray:
    """``y[t] = mean(x[t-window+1 .. t])`` with indices taken mod ``n``."""
    rows = np.atleast_2d(matrix)
    padded = np.concatenate([rows[:, rows.shape[1] - (window - 1):], rows], axis=1)
    sums = np.cumsum(np.pad(padded, ((0, 0), (1, 0))), axis=1)
    return (sums[:, window:] - sums[:, :-window]) / window


def check_within(
    approx: np.ndarray,
    exact: ExactFn,
    eps: float,
    got_keys: Sequence[int],
    got_dists: Sequence[float],
) -> Optional[str]:
    """A range answer: exactly the keys within ``eps``, with their distances.

    ``approx`` holds an oracle distance per key (``inf`` for keys that are
    not candidates); ``exact`` recomputes distances for chosen keys.
    """
    keys = np.asarray(got_keys, dtype=np.int64)
    dists = np.asarray(got_dists, dtype=np.float64)
    if np.unique(keys).size != keys.size:
        return "duplicate answers"
    if keys.size:
        true = exact(keys)
        if np.any(np.abs(true - dists) > TOL):
            return "reported distance differs from the oracle"
        if np.any(true > eps + TOL):
            return "false positive"
    missing = np.setdiff1d(np.flatnonzero(approx <= eps + SLACK), keys)
    if missing.size and np.any(exact(missing) <= eps - TOL):
        return "false dismissal"
    return None


def check_nearest(
    approx: np.ndarray,
    exact: ExactFn,
    k: int,
    got_keys: Sequence[int],
    got_dists: Sequence[float],
) -> Optional[str]:
    """A k-NN answer: ``k`` keys whose distances are the ``k`` smallest."""
    keys = np.asarray(got_keys, dtype=np.int64)
    dists = np.asarray(got_dists, dtype=np.float64)
    want = min(k, int(np.isfinite(approx).sum()))
    if keys.size != want:
        return f"{keys.size} neighbours returned, expected {want}"
    if want == 0:
        return None
    if np.unique(keys).size != keys.size:
        return "duplicate answers"
    true = exact(keys)
    if np.any(np.abs(true - dists) > TOL):
        return "reported distance differs from the oracle"
    radius = float(true.max())
    closer = np.setdiff1d(np.flatnonzero(approx < radius + SLACK), keys)
    if closer.size and np.any(exact(closer) < radius - TOL):
        return "a closer record was missed"
    return None


class SequenceOracle:
    """Whole-sequence distances over a relation's normal forms."""

    def __init__(self, matrix: np.ndarray, mavg_window: int) -> None:
        self.window = mavg_window
        self.plain = normal_forms(matrix)
        self.smoothed = circular_moving_average(self.plain, mavg_window)
        self._sq = {
            False: np.sum(self.plain**2, axis=1),
            True: np.sum(self.smoothed**2, axis=1),
        }

    def data(self, transformed: bool) -> np.ndarray:
        return self.smoothed if transformed else self.plain

    def _prepare(self, queries: np.ndarray, transformed: bool) -> np.ndarray:
        q = normal_forms(queries)
        return circular_moving_average(q, self.window) if transformed else q

    def _approx(self, qs: np.ndarray, transformed: bool) -> np.ndarray:
        """``(queries, records)`` distances through one matrix product."""
        d2 = self._sq[transformed][None, :] + np.sum(qs**2, axis=1)[:, None]
        d2 -= 2.0 * (qs @ self.data(transformed).T)
        return np.sqrt(np.clip(d2, 0.0, None))

    def _exact(self, q: np.ndarray, transformed: bool) -> ExactFn:
        data = self.data(transformed)
        return lambda keys: np.sqrt(np.sum((data[keys] - q) ** 2, axis=1))

    def distances(self, query: np.ndarray, transformed: bool) -> np.ndarray:
        q = self._prepare(query, transformed)[0]
        return self._exact(q, transformed)(np.arange(self.plain.shape[0]))

    def check_range(self, queries, eps, transformed, answers) -> Optional[str]:
        """One range answer per query row."""
        qs = self._prepare(queries, transformed)
        approx = self._approx(qs, transformed)
        for i, answer in enumerate(answers):
            reason = check_within(
                approx[i], self._exact(qs[i], transformed), eps,
                [m[0] for m in answer], [m[1] for m in answer],
            )
            if reason:
                return reason
        return None

    def check_knn(self, queries, k, transformed, answers) -> Optional[str]:
        """One k-NN answer per query row."""
        qs = self._prepare(queries, transformed)
        approx = self._approx(qs, transformed)
        for i, answer in enumerate(answers):
            reason = check_nearest(
                approx[i], self._exact(qs[i], transformed), k,
                [m[0] for m in answer], [m[1] for m in answer],
            )
            if reason:
                return reason
        return None

    def check_join(self, eps, transformed, pairs) -> Optional[str]:
        """A self-join: every unordered pair ``i < j`` within ``eps``."""
        data = self.data(transformed)
        m = data.shape[0]
        approx = self._approx(data, transformed)
        approx[np.tril_indices(m)] = np.inf

        def exact(keys: np.ndarray) -> np.ndarray:
            i, j = np.divmod(keys, m)
            return np.sqrt(np.sum((data[i] - data[j]) ** 2, axis=1))

        if any(not 0 <= i < j < m for i, j, _ in pairs):
            return "join pair out of order or out of range"
        keys = [i * m + j for i, j, _ in pairs]
        return check_within(approx.ravel(), exact, eps, keys, [p[2] for p in pairs])

    def pair_distance_quantile(self, transformed: bool, rank: int) -> float:
        """The ``rank``-th smallest distance over unordered pairs."""
        data = self.data(transformed)
        best = np.empty(0)
        for lo in range(0, data.shape[0], 256):
            block = self._approx(data[lo:lo + 256], transformed)
            rows, cols = np.indices(block.shape)
            block = block[cols > rows + lo]
            best = np.partition(np.concatenate([best, block]), rank)[: rank + 1]
        return float(np.sort(best)[rank])


class WindowOracle:
    """Subsequence distances over the raw windows of equal-length series."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.series = np.asarray(matrix, dtype=np.float64)
        self.sq_sums = np.pad(np.cumsum(self.series**2, axis=1), ((0, 0), (1, 0)))

    def distances(self, query: np.ndarray, n_series: int) -> np.ndarray:
        """``(n_series * offsets)`` window distances, key ``s * offsets + o``."""
        q = np.asarray(query, dtype=np.float64)
        length = q.shape[0]
        dots = np.stack(
            [np.correlate(self.series[s], q, mode="valid") for s in range(n_series)]
        )
        windows = self.sq_sums[:n_series, length:] - self.sq_sums[:n_series, :-length]
        d2 = windows - 2.0 * dots + float(q @ q)
        return np.sqrt(np.clip(d2, 0.0, None)).ravel()

    def _exact(self, query: np.ndarray) -> ExactFn:
        q = np.asarray(query, dtype=np.float64)
        offsets = self.series.shape[1] - q.shape[0] + 1

        def exact(keys: np.ndarray) -> np.ndarray:
            s, o = np.divmod(keys, offsets)
            idx = o[:, None] + np.arange(q.shape[0])
            return np.sqrt(np.sum((self.series[s[:, None], idx] - q) ** 2, axis=1))

        return exact

    def _keys(self, query: np.ndarray, answer) -> tuple[list[int], list[float]]:
        offsets = self.series.shape[1] - len(query) + 1
        return (
            [m.series_id * offsets + m.offset for m in answer],
            [m.distance for m in answer],
        )

    @staticmethod
    def _outside(query: np.ndarray, n_series: int, answer) -> bool:
        return any(
            not (0 <= m.series_id < n_series and 0 <= m.offset)
            for m in answer
        )

    def check_range(self, query, eps, n_series, answer) -> Optional[str]:
        if self._outside(query, n_series, answer):
            return "match outside the indexed series"
        keys, dists = self._keys(query, answer)
        return check_within(
            self.distances(query, n_series), self._exact(query), eps, keys, dists
        )

    def check_knn(self, query, k, n_series, answer) -> Optional[str]:
        if self._outside(query, n_series, answer):
            return "match outside the indexed series"
        keys, dists = self._keys(query, answer)
        return check_nearest(
            self.distances(query, n_series), self._exact(query), k, keys, dists
        )

"""Distance measures, including the transformation-closure distance of Eq. 10.

Besides plain Euclidean and city-block distances, this module provides:

* :func:`euclidean_early_abandon` — the tuned distance the paper's
  sequential-scan competitor uses ("we stop the distance computation
  process as soon as the distance exceeds eps"), and
* :class:`TransformationClosureDistance` — a terminating implementation of
  the recursive dissimilarity definition (Eq. 10): the cheapest way to make
  ``x`` and ``y`` match, where each transformation application charges its
  cost and the total cost is bounded.  The paper notes the bound is what
  stops "any two series becoming similar" under repeated smoothing
  (Example 2.3); here it also guarantees termination.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.transforms import Transformation
from repro.dft import dft

ArrayLike = Union[Sequence[float], np.ndarray]


def euclidean(x: ArrayLike, y: ArrayLike) -> float:
    """Euclidean distance ``D(x, y)`` between equal-length sequences."""
    a = np.asarray(x, dtype=np.complex128)
    b = np.asarray(y, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def cityblock(x: ArrayLike, y: ArrayLike) -> float:
    """City-block (L1) distance, mentioned in the paper's introduction."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b)))


def euclidean_early_abandon(
    x: ArrayLike, y: ArrayLike, eps: float, block: int = 8
) -> Optional[float]:
    """Euclidean distance, abandoned once it provably exceeds ``eps``.

    Processes coordinates block-wise, accumulating squared differences, and
    returns ``None`` as soon as the partial sum exceeds ``eps**2`` — for
    spectra (whose energy concentrates in the leading coefficients) most
    non-matches are rejected within the first block, which is the paper's
    "good implementation of the sequential scan".

    Returns:
        the exact distance when it is ``<= eps``, else ``None``.
    """
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    a = np.asarray(x, dtype=np.complex128)
    b = np.asarray(y, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    limit = eps * eps
    acc = 0.0
    n = a.shape[0]
    for start in range(0, n, block):
        seg = a[start : start + block] - b[start : start + block]
        acc += float(np.sum(seg.real**2 + seg.imag**2))
        if acc > limit:
            return None
    return float(np.sqrt(acc))


def batch_euclidean_within(
    matrix: ArrayLike, q: ArrayLike, eps: float, block: int = 8,
    transformation: Optional[Transformation] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batched :func:`euclidean_early_abandon` of many rows against ``q``.

    Matrix-level early abandoning: squared differences are accumulated
    block-by-block across columns for *all still-active rows at once*, and a
    row is dropped from the active set as soon as its partial sum exceeds
    ``eps**2`` — the same abandonment rule as the scalar path, evaluated as
    a handful of numpy calls instead of one Python loop per row.

    A diagonal ``transformation`` is applied to each column block of the
    still-active rows as it is read: bit-identical to transforming the
    whole matrix first, without the transformed copy.

    Real-valued inputs (e.g. raw subsequence windows rather than spectra)
    stay in float64 throughout — same accumulation order and results as
    the complex path with a zero imaginary part, at half the memory
    traffic.

    Returns:
        ``(indices, distances, abandoned)`` where ``indices`` are the rows
        whose full distance is ``<= eps`` (ascending), ``distances`` their
        exact distances, and ``abandoned`` how many rows were dropped early.
    """
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    is_complex = (
        np.iscomplexobj(matrix) or np.iscomplexobj(q) or transformation is not None
    )
    dtype = np.complex128 if is_complex else np.float64
    a = np.asarray(matrix, dtype=dtype)
    b = np.asarray(q, dtype=dtype)
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} rows vs query {b.shape}")
    m, n = a.shape
    limit = eps * eps
    active = np.arange(m)
    acc = np.zeros(m)
    for start in range(0, n, block):
        if active.size == 0:
            break
        cols = slice(start, start + block)
        seg = a[active, cols]
        if transformation is not None:
            seg = transformation.a[cols] * seg + transformation.b[cols]
        seg -= b[cols]  # ``seg`` is always a fresh copy (fancy indexing)
        sq = seg.real**2 + seg.imag**2 if is_complex else np.square(seg)
        acc[active] += np.sum(sq, axis=1)
        keep = acc[active] <= limit
        if not np.all(keep):
            active = active[keep]
    abandoned = m - active.size
    return active, np.sqrt(acc[active]), abandoned


class TransformationClosureDistance:
    """Cost-bounded dissimilarity under a set of transformations (Eq. 10).

    ``D(x, y)`` is the minimum over all (possibly empty) sequences of
    transformations applied to either side of

        ``total cost + D0(T_i(...T_1(x)), U_j(...U_1(y)))``

    subject to ``total cost <= budget`` and at most ``max_steps``
    applications per side.  Computed as a uniform-cost search over pairs of
    transformed spectra; with zero-cost transformations the ``max_steps``
    bound alone guarantees termination.

    Args:
        transformations: the set ``t`` of usable transformations.
        budget: inclusive bound on summed transformation costs.
        max_steps: bound on applications per side.
    """

    def __init__(
        self,
        transformations: Sequence[Transformation],
        budget: float = float("inf"),
        max_steps: int = 2,
    ) -> None:
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.transformations = list(transformations)
        self.budget = budget
        self.max_steps = max_steps

    def __call__(self, x: ArrayLike, y: ArrayLike) -> float:
        """The dissimilarity ``D(x, y)``; also available as ``distance``."""
        return self.distance(x, y)

    def distance(self, x: ArrayLike, y: ArrayLike) -> float:
        """Evaluate Eq. 10 on two time-domain sequences."""
        spec_x = dft(np.asarray(x, dtype=np.float64))
        spec_y = dft(np.asarray(y, dtype=np.float64))
        return self.distance_spectra(spec_x, spec_y)

    def distance_spectra(self, spec_x: np.ndarray, spec_y: np.ndarray) -> float:
        """Evaluate Eq. 10 on two spectra (frequency domain)."""
        if spec_x.shape != spec_y.shape:
            raise ValueError(
                f"length mismatch: {spec_x.shape} vs {spec_y.shape}"
            )
        best = float(np.linalg.norm(spec_x - spec_y))
        counter = itertools.count()
        # State: (accumulated cost, steps on x side, steps on y side, specs).
        heap: list = [(0.0, next(counter), 0, 0, spec_x, spec_y)]
        seen: set[tuple] = set()
        while heap:
            cost, _, sx, sy, cx, cy = heapq.heappop(heap)
            if cost >= best:
                break  # no cheaper completion is possible
            d = cost + float(np.linalg.norm(cx - cy))
            if d < best:
                best = d
            for t in self.transformations:
                new_cost = cost + t.cost
                if new_cost > self.budget or new_cost >= best:
                    continue
                if sx < self.max_steps:
                    nx = t.apply_spectrum(cx)
                    key = (sx + 1, sy, round(new_cost, 12), nx.tobytes(), cy.tobytes())
                    if key not in seen:
                        seen.add(key)
                        heapq.heappush(
                            heap, (new_cost, next(counter), sx + 1, sy, nx, cy)
                        )
                if sy < self.max_steps:
                    ny = t.apply_spectrum(cy)
                    key = (sx, sy + 1, round(new_cost, 12), cx.tobytes(), ny.tobytes())
                    if key not in seen:
                        seen.add(key)
                        heapq.heappush(
                            heap, (new_cost, next(counter), sx, sy + 1, cx, ny)
                        )
        return best

    def explain(self, x: ArrayLike, y: ArrayLike) -> dict:
        """Like :meth:`distance` but also reports the winning recipe.

        Returns a dict with ``distance``, ``cost``, ``x_chain`` and
        ``y_chain`` (transformation names applied to each side).
        """
        spec_x = dft(np.asarray(x, dtype=np.float64))
        spec_y = dft(np.asarray(y, dtype=np.float64))
        best = {
            "distance": float(np.linalg.norm(spec_x - spec_y)),
            "cost": 0.0,
            "x_chain": [],
            "y_chain": [],
        }
        counter = itertools.count()
        heap: list = [(0.0, next(counter), [], [], spec_x, spec_y)]
        while heap:
            cost, _, chain_x, chain_y, cx, cy = heapq.heappop(heap)
            if cost >= best["distance"]:
                break
            d = cost + float(np.linalg.norm(cx - cy))
            if d < best["distance"]:
                best = {
                    "distance": d,
                    "cost": cost,
                    "x_chain": [t.name for t in chain_x],
                    "y_chain": [t.name for t in chain_y],
                }
            for t in self.transformations:
                new_cost = cost + t.cost
                if new_cost > self.budget or new_cost >= best["distance"]:
                    continue
                if len(chain_x) < self.max_steps:
                    heapq.heappush(
                        heap,
                        (
                            new_cost,
                            next(counter),
                            chain_x + [t],
                            chain_y,
                            t.apply_spectrum(cx),
                            cy,
                        ),
                    )
                if len(chain_y) < self.max_steps:
                    heapq.heappush(
                        heap,
                        (
                            new_cost,
                            next(counter),
                            chain_x,
                            chain_y + [t],
                            cx,
                            t.apply_spectrum(cy),
                        ),
                    )
        return best

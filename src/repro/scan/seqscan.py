"""Sequential scanning with the paper's tuning.

The paper is careful to race its index against a *good* sequential scan
(Section 5): the scan runs over the relation stored **in the frequency
domain**, so that the large leading coefficients let the distance
computation abandon most sequences after a few terms, and each distance
computation stops as soon as it exceeds ``eps``.  These functions implement
exactly that (plus an untuned variant for calibration), each query as one
matrix pass that abandons rows block by block across the whole relation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.similarity import batch_euclidean_within
from repro.core.transforms import Transformation
from repro.rtree.backend import xp
from repro.storage.stats import IOStats


def _ordered(ids: xp.ndarray, dists: xp.ndarray) -> list[tuple[int, float]]:
    """``(id, distance)`` pairs sorted by ``(distance, id)``."""
    order = xp.lexsort((ids, dists))
    return list(zip(ids[order].tolist(), dists[order].tolist()))


def _hoisted(spectra: xp.ndarray, t: Optional[Transformation]) -> xp.ndarray:
    return spectra if t is None else t.apply_spectrum(spectra)


def _knn(
    spectra: xp.ndarray, q: xp.ndarray, k: int, t: Optional[Transformation]
) -> list[tuple[int, float]]:
    """The ``k`` rows nearest ``q``, ties broken by the smaller id.

    One early-abandoning range pass at a radius that provably holds them:
    the largest full distance among the ``k`` rows nearest on the leading
    eight coefficients (where a spectrum's energy concentrates).  The
    distances are the range kernel's, bit for bit.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0 or spectra.shape[0] == 0:
        return []

    def within(rows: xp.ndarray, query: xp.ndarray, eps: float) -> tuple:
        return batch_euclidean_within(rows, query, eps, block=4, transformation=t)

    radius = float("inf")
    if k < spectra.shape[0]:
        _, lead, _ = within(spectra[:, :8], q[:8], radius)
        _, near, _ = within(spectra[xp.argpartition(lead, k - 1)[:k]], q, radius)
        # Widened past sqrt/square rounding so the bounding rows stay in.
        radius = float(near.max()) * (1 + 1e-12)
    ids, dists, _ = within(spectra, q, radius)
    if k < ids.shape[0]:
        # Rows tied with the k-th distance all stay; the order keeps the
        # smallest ids among them.
        keep = dists <= xp.partition(dists, k - 1)[k - 1]
        ids, dists = ids[keep], dists[keep]
    return _ordered(ids, dists)[:k]


def scan_range(
    ground_spectra: xp.ndarray,
    query_spectrum: xp.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    early_abandon: bool = True,
    block: int = 4,
    stats: Optional[IOStats] = None,
) -> list[tuple[int, float]]:
    """Range query by scanning the frequency-domain relation.

    Args:
        ground_spectra: ``(m, n)`` complex matrix of record spectra.
        query_spectrum: full spectrum of the query.
        eps: similarity threshold.
        transformation: applied to each record during the comparison
            (the data side, matching Algorithm 2's semantics), one column
            block of the still-active records at a time.
        early_abandon: stop each distance computation once it exceeds
            ``eps`` (the paper's optimisation; ``False`` gives the naive
            scan: one full distance per record).
        block: coefficients accumulated per early-abandon step.
        stats: counter bundle.

    Returns:
        ``(record id, exact distance)`` pairs sorted by distance.
    """
    if early_abandon:
        ids, dists, _ = batch_euclidean_within(
            ground_spectra, query_spectrum, eps, block=block,
            transformation=transformation,
        )
    else:
        dists = xp.linalg.norm(
            _hoisted(ground_spectra, transformation) - query_spectrum, axis=1
        )
        ids = xp.flatnonzero(dists <= eps)
        dists = dists[ids]
    if stats is not None:
        stats.distance_computations += ground_spectra.shape[0]
    return _ordered(ids, dists)


def scan_range_many(
    ground_spectra: xp.ndarray,
    query_spectra: xp.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    block: int = 4,
    stats: Optional[IOStats] = None,
) -> list[list[tuple[int, float]]]:
    """Batched :func:`scan_range` over an ``(m, n)`` matrix of query spectra.

    The transformation is hoisted over the whole relation once (O(records)
    applications instead of O(records × queries)), and each query is then
    one early-abandoning matrix pass.  Answers are identical to per-query
    :func:`scan_range` calls.
    """
    tspec = _hoisted(ground_spectra, transformation)
    out = [
        _ordered(*batch_euclidean_within(tspec, q_spec, eps, block=block)[:2])
        for q_spec in xp.asarray(query_spectra, dtype=xp.complex128)
    ]
    if stats is not None:
        stats.distance_computations += ground_spectra.shape[0] * len(out)
    return out


def scan_knn(
    ground_spectra: xp.ndarray,
    query_spectrum: xp.ndarray,
    k: int,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
) -> list[tuple[int, float]]:
    """Exact k-NN by scanning, ordered by ``(distance, id)``.

    Edge cases match the index path's kernel contract: ``k == 0`` and an
    empty relation return ``[]``; ``k > m`` returns every record.
    """
    out = _knn(ground_spectra, query_spectrum, k, transformation)
    if stats is not None and k > 0:
        stats.distance_computations += ground_spectra.shape[0]
    return out


def scan_knn_many(
    ground_spectra: xp.ndarray,
    query_spectra: xp.ndarray,
    k: int,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
) -> list[list[tuple[int, float]]]:
    """Batched :func:`scan_knn`; the transformation is hoisted over the
    relation once, as in :func:`scan_range_many`."""
    tspec = _hoisted(ground_spectra, transformation)
    out = [_knn(tspec, q_spec, k, None) for q_spec in query_spectra]
    if stats is not None and k > 0:
        stats.distance_computations += ground_spectra.shape[0] * len(out)
    return out

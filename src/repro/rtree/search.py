"""Nearest-neighbour search over (transformed) R-trees.

Implements the branch-and-bound traversal of Roussopoulos, Kelley & Vincent
(SIGMOD 1995) that the paper cites for its nearest-neighbour queries
(Section 4: "we can then use any kind of metric (such as MINDIST or
MINMAXDIST...) for pruning the search"), generalised in two ways:

* the traversal runs over a :class:`~repro.rtree.transformed.TransformedIndexView`,
  applying the safe transformation to every node as it is visited, and
* the distance metric is pluggable, so the polar feature space can supply
  its law-of-cosines point distance and conservative rectangle MINDIST.

:func:`incremental_nearest` is the engine's workhorse: a best-first
generator that yields leaf entries in non-decreasing order of (a lower
bound on) their distance, enabling exact multi-step k-NN over the k-index.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.rtree.geometry import Rect
from repro.rtree.node import Entry
from repro.rtree.transformed import TransformedIndexView
from repro.storage.budget import ResourceBudget

#: distance from a query point to a rectangle (a lower bound for pruning)
RectDistFn = Callable[[Rect, np.ndarray], float]
#: distance from a query point to an indexed point
PointDistFn = Callable[[np.ndarray, np.ndarray], float]
#: batched rect distance: (m, d) lows, (m, d) highs, query -> (m,) bounds
RectDistManyFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
#: batched point distance: (m, d) points, query -> (m,) distances
PointDistManyFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _euclid_point_many(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points - q, axis=1)


def _rowwise_rect(fn: RectDistFn) -> RectDistManyFn:
    """Adapt a scalar rect-distance to the batched signature (reference)."""

    def many(lows: np.ndarray, highs: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.array([fn(Rect(lows[i], highs[i]), q) for i in range(lows.shape[0])])

    return many


def _rowwise_point(fn: PointDistFn) -> PointDistManyFn:
    """Adapt a scalar point-distance to the batched signature (reference)."""

    def many(points: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.array([fn(points[i], q) for i in range(points.shape[0])])

    return many


def incremental_nearest(
    view: TransformedIndexView,
    query: Sequence[float],
    rect_dist: Optional[RectDistFn] = None,
    point_dist: Optional[PointDistFn] = None,
    rect_dist_many: Optional[RectDistManyFn] = None,
    point_dist_many: Optional[PointDistManyFn] = None,
    budget: Optional[ResourceBudget] = None,
) -> Iterator[tuple[float, Entry]]:
    """Yield transformed leaf entries in non-decreasing distance order.

    Each visited node is scored with *one* distance evaluation over its
    stacked child MBRs (``rect_dist_many`` / ``point_dist_many``); when only
    scalar metrics are supplied they are applied row by row, so custom
    scalar metrics keep working and serve as the reference path.  Child
    nodes are read lazily when popped, never eagerly when pushed.

    Args:
        view: transformed index view (identity map for a plain index).
        query: query point in index space.
        rect_dist: lower-bound distance from query to a transformed MBR;
            Euclidean MINDIST by default.
        point_dist: distance from query to a transformed leaf point;
            Euclidean by default.
        rect_dist_many: batched form of ``rect_dist`` over ``(m, d)``
            lows/highs stacks; vectorised MINDIST by default.
        point_dist_many: batched form of ``point_dist`` over an ``(m, d)``
            point matrix; vectorised Euclidean by default.
        budget: optional per-query :class:`ResourceBudget`; when a limit
            fires the stream stops yielding and sets ``budget.truncated``
            (k-NN truncation semantics) instead of raising.

    Yields:
        ``(distance, entry)`` pairs; ``entry.rect`` is the transformed
        point and ``entry.child`` the record id.
    """
    q = np.asarray(query, dtype=np.float64)
    # With a frozen kernel attached and fully-batched metrics (explicit, or
    # the Euclidean defaults), the traversal runs through the kernel's
    # block-yield stream: nodes are popped once and their entries travel as
    # distance-sorted blocks, so the heap holds one item per block instead
    # of one per entry.  Scalar-only custom metrics keep the recursive
    # reference path (they cannot be vectorised on the caller's behalf).
    if view.kernel is not None and (
        (rect_dist_many is not None or rect_dist is None)
        and (point_dist_many is not None or point_dist is None)
    ):
        for dist, rid, point in view.kernel.nearest_stream(
            q,
            view.mapping.scale,
            view.mapping.offset,
            rect_dist_many=rect_dist_many,
            point_dist_many=point_dist_many,
            io=view.tree.store.stats,
            budget=budget,
        ):
            yield dist, Entry(Rect(point, point), rid)
        return
    if rect_dist_many is None:
        rect_dist_many = (
            Rect.mindist_many if rect_dist is None else _rowwise_rect(rect_dist)
        )
    if point_dist_many is None:
        point_dist_many = (
            _euclid_point_many if point_dist is None else _rowwise_point(point_dist)
        )
    counter = itertools.count()  # tie-breaker so heapq never compares entries
    heap: list[tuple[float, int, bool, object]] = []
    heapq.heappush(heap, (0.0, next(counter), False, view.root_id))
    while heap:
        if budget is not None and budget.exceeded(len(heap)) is not None:
            budget.truncated = True
            return
        dist, _, is_entry, item = heapq.heappop(heap)
        if is_entry:
            yield dist, item  # type: ignore[misc]
            continue
        node, t_lows, t_highs = view.transformed_node_arrays(item)  # type: ignore[arg-type]
        if not node.entries:
            continue
        if node.is_leaf:
            ds = point_dist_many(t_lows, q)
            for i, e in enumerate(node.entries):
                heapq.heappush(
                    heap,
                    (
                        float(ds[i]),
                        next(counter),
                        True,
                        Entry(Rect(t_lows[i], t_highs[i]), e.child),
                    ),
                )
        else:
            ds = rect_dist_many(t_lows, t_highs, q)
            for i, e in enumerate(node.entries):
                heapq.heappush(heap, (float(ds[i]), next(counter), False, e.child))


def nearest_neighbors(
    view: TransformedIndexView,
    query: Sequence[float],
    k: int = 1,
    rect_dist: Optional[RectDistFn] = None,
    point_dist: Optional[PointDistFn] = None,
    rect_dist_many: Optional[RectDistManyFn] = None,
    point_dist_many: Optional[PointDistManyFn] = None,
) -> list[tuple[float, Entry]]:
    """The ``k`` transformed entries nearest to ``query`` in index space."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    out: list[tuple[float, Entry]] = []
    for dist, entry in incremental_nearest(
        view, query, rect_dist, point_dist, rect_dist_many, point_dist_many
    ):
        out.append((dist, entry))
        if len(out) == k:
            break
    return out


def depth_first_nearest(
    view: TransformedIndexView,
    query: Sequence[float],
    k: int = 1,
) -> list[tuple[float, Entry]]:
    """RKV95-style depth-first k-NN with MINDIST ordering and MINMAXDIST pruning.

    Kept alongside the best-first version both as a cross-check in tests and
    because it is the algorithm the paper actually cites.  Euclidean metric
    only (MINMAXDIST has no clean analogue for the polar metric).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    q = np.asarray(query, dtype=np.float64)
    best: list[tuple[float, int, Entry]] = []  # max-heap via negated distance
    counter = itertools.count()

    def visit(node_id: int) -> None:
        node = view.transformed_node(node_id)
        if node.is_leaf:
            for e in node.entries:
                d = float(np.linalg.norm(e.rect.lows - q))
                if len(best) < k:
                    heapq.heappush(best, (-d, next(counter), e))
                elif d < -best[0][0]:
                    heapq.heapreplace(best, (-d, next(counter), e))
            return
        branches = sorted(
            ((e.rect.mindist(q), e.rect.minmaxdist(q), e) for e in node.entries),
            key=lambda t: t[0],
        )
        # MINMAXDIST guarantees an object within that distance exists, so
        # any branch whose MINDIST exceeds the smallest MINMAXDIST (or the
        # current k-th best) can be pruned.
        if branches and len(best) < k:
            min_minmax = min(b[1] for b in branches)
        else:
            min_minmax = float("inf")
        for mind, _, e in branches:
            worst = -best[0][0] if len(best) == k else float("inf")
            if mind > worst or mind > min_minmax:
                continue
            visit(e.child)

    visit(view.root_id)
    return sorted(((-d, e) for d, _, e in best), key=lambda t: t[0])

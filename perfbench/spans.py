"""In-memory span tracing of the engine's layers, from outside the engine.

The traced run wraps the public entry points of each layer (listed in
:data:`LAYER_TARGETS`) with spans.  A span records its name, its start and
end (``perf_counter_ns``), the span that caused it and the id of the
operation it belongs to; every span opened while a harness operation runs
shares that operation's trace id.  Spans stay in memory and are summarised
once the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Calls nest strictly (one thread), so the self times of all spans
add up exactly to the summed durations of the root spans: the harness opens
one root span (``bench.*``) per operation, and the root's own self time is
the part of the operation no layer span covers (``trace.untraced_ms``).

Nothing here changes the engine's code: :class:`Instrumentation` swaps
module attributes and class attributes for wrappers and puts the originals
back on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

#: Span-name prefix of the harness's root spans (one per operation).
ROOT_PREFIX = "bench."


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    start_ns: int
    end_ns: int = -1

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_trace = 0

    def open(self, name: str) -> Optional[Span]:
        """Open a span under the current one; ``None`` outside any operation.

        Layer spans are only recorded while a root span is open, so engine
        calls the harness makes between operations (warm-up, ``explain``)
        stay out of the trace.
        """
        if not self._stack:
            if not name.startswith(ROOT_PREFIX):
                return None
            self._next_trace += 1
            parent_id, trace_id = None, self._next_trace
        else:
            parent_id, trace_id = self._stack[-1].span_id, self._stack[-1].trace_id
        span = Span(len(self.spans), parent_id, trace_id, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end_ns = time.perf_counter_ns()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def root(self, name: str) -> "_SpanContext":
        """Context manager for one harness operation's root span."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        return _SpanContext(self, ROOT_PREFIX + name)

    def within(self, prefix: str) -> bool:
        """Whether any open span's name starts with ``prefix``."""
        return any(s.name.startswith(prefix) for s in self._stack)

    def self_times_ns(self) -> dict[str, int]:
        """Summed self time per span name."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent_id is not None:
                child_ns[s.parent_id] += s.duration_ns
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + s.duration_ns - child_ns[s.span_id]
        return out

    def wall_ns(self) -> int:
        """Summed duration of the root spans (the traced wall time)."""
        return sum(s.duration_ns for s in self.spans if s.parent_id is None)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        self._span = self._tracer.open(self._name)
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer.close(self._span)


def layer_breakdown(tracer: Tracer, layers: Iterable[str] = ()) -> dict[str, float]:
    """Per-layer self milliseconds plus the trace totals.

    Returns ``{"<span name>_ms": ...}`` for every span name seen and every
    name in ``layers`` (0 for a layer the run never entered), and
    ``trace.wall_ms`` / ``trace.untraced_ms`` (the roots' self time), so
    that the layer values plus ``trace.untraced_ms`` equal
    ``trace.wall_ms``.
    """
    out = {name + "_ms": 0.0 for name in layers}
    untraced = 0
    for name, ns in tracer.self_times_ns().items():
        if name.startswith(ROOT_PREFIX):
            untraced += ns
        else:
            out[name + "_ms"] = ns / 1e6
    out["trace.wall_ms"] = tracer.wall_ns() / 1e6
    out["trace.untraced_ms"] = untraced / 1e6
    return out


# ----------------------------------------------------------------------
# wrapping the engine's entry points
# ----------------------------------------------------------------------
def traced(tracer: Tracer, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """``fn`` inside a span called ``name``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _traced_operator(tracer: Tracer, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """``Operator.execute``: one span per operator, named by its class."""

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        span = tracer.open(f"{name}.{type(self).__name__}")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _traced_knn_batch(tracer: Tracer, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """``FrozenRTree.knn_batch`` plus a span around its verify callback."""
    signature = inspect.signature(fn)
    verify_name = name.rsplit(".", 1)[0] + ".knn_verify"

    inner = traced(tracer, fn, name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        for param in ("verify_many", "verify_expand"):
            callback = bound.arguments.get(param)
            if callback is not None:
                bound.arguments[param] = traced(tracer, callback, verify_name)
        return inner(*bound.args, **bound.kwargs)

    return wrapper


def _traced_under(prefix: str) -> Callable[..., Callable[..., Any]]:
    """A wrapper factory that opens the span only below a ``prefix`` span."""

    def factory(tracer: Tracer, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        inner = traced(tracer, fn, name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return (inner if tracer.within(prefix) else fn)(*args, **kwargs)

        return wrapper

    return factory


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module:attr`` or ``module:Class.attr``."""

    path: str
    span: str
    factory: Callable[..., Callable[..., Any]] = traced


#: The public entry points of each layer and the span (= layer) they feed.
LAYER_TARGETS = (
    Target("repro.persist:load_engine", "persist.load"),
    Target("repro.storage.manifest:verify_file", "storage.manifest.verify"),
    Target("repro.storage.manifest:verify_arrays", "storage.manifest.verify"),
    Target("repro.core.features:FeatureSpace.extract_many_with_spectra",
           "core.features.spectra"),
    Target("repro.core.features:FeatureSpace.series_spectrum", "core.features.spectra"),
    Target("repro.core.features:FeatureSpace.series_spectrum_many",
           "core.features.spectra"),
    Target("repro.core.features:FeatureSpace.extract", "core.features.spectra"),
    Target("repro.core.features:FeatureSpace.ground_distances_within_many",
           "core.features.verify"),
    Target("repro.core.engine:SimilarityEngine.plan", "core.plan.compile"),
    Target("repro.subseq.stindex:STIndex.plan", "core.plan.compile"),
    Target("repro.core.planner:SelectivityEstimator.fraction", "core.planner.estimate"),
    Target("repro.core.ops:Operator.execute", "core.ops", _traced_operator),
    Target("repro.scan.seqscan:scan_range", "scan.seqscan"),
    Target("repro.scan.seqscan:scan_range_many", "scan.seqscan"),
    Target("repro.scan.seqscan:scan_knn", "scan.seqscan"),
    Target("repro.rtree.kernel:FrozenRTree.range_ids", "rtree.kernel.range"),
    Target("repro.rtree.kernel:FrozenRTree.range_ids_many", "rtree.kernel.range"),
    Target("repro.rtree.kernel:FrozenRTree.knn_batch", "rtree.kernel.knn_batch",
           _traced_knn_batch),
    Target("repro.rtree.kernel:FrozenRTree.join_pairs", "rtree.kernel.join_pairs"),
    Target("repro.rtree.kernel:frozen_kernel", "rtree.kernel.freeze"),
    Target("repro.rtree.kernel:FrozenRTree.freeze", "rtree.kernel.freeze"),
    Target("repro.rtree.kernel:FrozenRTree.from_arrays", "rtree.kernel.freeze"),
    Target("repro.rtree.bulk:str_pack", "rtree.bulk.pack"),
    Target("repro.rtree.bulk:str_pack_rects", "rtree.bulk.pack"),
    Target("repro.subseq.window:sliding_features", "subseq.window.features"),
    Target("repro.subseq.window:piece_features", "subseq.window.features"),
    Target("repro.subseq.window:prefix_features", "subseq.window.features"),
    Target("repro.subseq.stindex:STIndex.add_series_many", "subseq.stindex.add"),
    Target("repro.subseq.stindex:STIndex._seal", "subseq.stindex.seal"),
    Target("repro.subseq.stindex:STIndex._probe_batch", "subseq.stindex.probe"),
    Target("repro.core.similarity:batch_euclidean_within", "core.similarity.refine",
           _traced_under("core.ops.Subseq")),
)


def layer_names() -> list[str]:
    """Every span name the layer targets can produce."""
    from repro.core.ops import Operator

    names = []
    for target in LAYER_TARGETS:
        if target.factory is _traced_operator:
            names += [f"{target.span}.{cls.__name__}" for cls in _subclasses(Operator)]
        elif target.factory is _traced_knn_batch:
            names += [target.span, target.span.rsplit(".", 1)[0] + ".knn_verify"]
        else:
            names.append(target.span)
    return sorted(set(names))


class Instrumentation:
    """Swaps the layer wrappers in while active; a ``with`` block or
    :meth:`install`/:meth:`uninstall` pairs switch it.

    The swaps are planned once, at construction, over the modules loaded
    then: a module-level function is replaced in every ``repro`` module
    that bound it by name (``from x import f``), so callers see the wrapper
    whichever way they imported it; a method is replaced on its class and
    on every subclass that overrides it.  Switching is a few hundred
    attribute assignments, cheap enough to do around single operations.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._swaps: list[tuple[Any, str, Any, Any]] = []
        for target in LAYER_TARGETS:
            self._plan(target)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _plan(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapper = target.factory(self.tracer, original, target.span)
            for mod in _repro_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, attr, original, wrapper))
            return
        cls_name, attr = qualname.split(".")
        base = getattr(module, cls_name)
        for cls in [base, *_subclasses(base)]:
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    target.factory(self.tracer, raw.__func__, target.span)
                )
            else:
                wrapped = target.factory(self.tracer, raw, target.span)
            self._swaps.append((cls, attr, raw, wrapped))


def _repro_modules() -> list[Any]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)

"""Span tracing around the system's public layer functions.

:meth:`Tracer.install` replaces each traced function, from the outside,
with a wrapper that records one :class:`~perfbench.stats.Span` per call;
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
until the run writes them out.  Each thread keeps its own span stack, and
a span opened on a thread with an empty stack (the fleet's shard pool)
gets the current batch's root span as parent.
"""

from __future__ import annotations

import functools
import threading
import time

from repro.core import engine as core_engine
from repro.core import multiquery as core_multiquery
from repro.core.cache import CachePolicy
from repro.core.dcsr import DcsrCache
from repro.core.frequency import FrequencyEstimator
from repro.core.frequency_frontier import FrontierFrequencyEstimator  # noqa: F401  subclass wrapped below
from repro.core.prefilter import InvariantIndex
from repro.core.querytrie import SharedTrieExecutor
from repro.graphs.datasets import DatasetSpec
from repro.graphs.dynamic_graph import DynamicGraph
from repro.multigpu import engine as multigpu_engine
from repro.multigpu import shard as multigpu_shard
from repro.multigpu.partition import Partitioner

from perfbench.stats import Span

__all__ = ["Tracer"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _effective_sizes(args, result) -> dict:
    return {"raw": len(args[1]), "effective": len(result)}


def _targets():
    """``(owner, attribute, layer, span name, on_return)`` for every traced
    function.  ``match_batch`` is traced where each engine module binds it."""
    targets = [
        (DatasetSpec, "build", "graphs", "datasets.build", None),
        (DynamicGraph, "__init__", "graphs", "DynamicGraph.__init__", None),
        (DynamicGraph, "apply_batch", "graphs", "DynamicGraph.apply_batch",
         _effective_sizes),
        (DynamicGraph, "reorganize", "graphs", "DynamicGraph.reorganize", None),
        (DcsrCache, "build", "cache", "DcsrCache.build", None),
        (multigpu_shard, "select_within_budget", "cache", "select_within_budget", None),
        (InvariantIndex, "apply_batch", "prefilter", "InvariantIndex.apply_batch", None),
        (InvariantIndex, "evaluate", "prefilter", "InvariantIndex.evaluate", None),
        (SharedTrieExecutor, "run", "querytrie", "SharedTrieExecutor.run", None),
        (core_engine, "match_batch", "matching", "match_batch", None),
        (core_multiquery, "match_batch", "matching", "match_batch", None),
        (multigpu_engine, "match_batch", "matching", "shard.match_batch", None),
    ]
    for cls in (FrequencyEstimator, *_subclasses(FrequencyEstimator)):
        if "estimate" in vars(cls):
            targets.append((cls, "estimate", "frequency", "estimate", None))
    for cls in (CachePolicy, *_subclasses(CachePolicy)):
        for attr in ("select", "rank"):
            if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False):
                targets.append((cls, attr, "cache", f"CachePolicy.{attr}", None))
    for cls in _subclasses(Partitioner):
        if "assign" in vars(cls):
            targets.append((cls, "assign", "multigpu", "Partitioner.assign", None))
    return targets


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: Span | None = None
        self._installed: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        root = self._root
        if stack:
            parent = stack[-1].id
        else:
            parent = root.id if root is not None else None
        with self._lock:
            span = Span(
                id=self._next_id, layer=layer, name=name, start=0,
                parent=parent, batch=root.batch if root is not None else None,
                thread=threading.get_ident(),
            )
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def begin_batch(self, batch_id: int) -> Span:
        """Open the root span of one ``process_batch`` call."""
        span = self.open("bench", "process_batch")
        span.parent = None
        span.batch = batch_id
        self._root = span
        return span

    def end_batch(self, span: Span) -> None:
        self.close(span)
        self._root = None

    # -- installation -----------------------------------------------------
    def _wrap(self, fn, layer: str, name: str, on_return):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_return is not None:
                span.attrs.update(on_return(args, result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, layer, name, on_return in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer, name, on_return))
            else:
                wrapped = self._wrap(original, layer, name, on_return)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

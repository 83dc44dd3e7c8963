"""Small pure helpers: percentiles, error counting, spans' self time."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "percentile",
    "tail_percentile",
    "count_errors",
    "Span",
    "attribute_self_time",
]

#: candidate tail percentiles, highest first; p50 is the fallback when the
#: run has too few batches for either
TAIL_PERCENTILES = (90, 75)
MIN_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``% of
    the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """``(p, value)`` for the highest of p90/p75 with at least ten samples
    beyond it (ranked above it); p50 when neither has."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p, percentile(samples, p)
    return 50, percentile(samples, 50)


def count_errors(observed: list, expected: list[dict]) -> int:
    """Batches that raised or whose ΔM or embedding count differs from
    ``expected``.  ``observed`` holds ``[i, outcome]`` pairs: ``i`` is the
    batch's index in its pass and ``outcome`` is ``None`` when the batch
    raised, else ``{"delta": {query: n}, "embeddings": {query: n}}``."""
    failed = 0
    for i, obs in observed:
        want = expected[i]
        if obs is None or obs["delta"] != want["delta"] or (
            obs["embeddings"] != want["embeddings"]
        ):
            failed += 1
    return failed


@dataclass
class Span:
    """One traced call: ``[start, end)`` in ns on one thread."""

    id: int
    layer: str
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    batch: int | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)


def _union(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _subtract(start: int, end: int, covered: list[tuple[int, int]]):
    cursor = start
    for a, b in covered:
        a, b = max(a, start), min(b, end)
        if a >= b:
            continue
        if a > cursor:
            yield cursor, a
        cursor = max(cursor, b)
    if cursor < end:
        yield cursor, end


def attribute_self_time(spans: list[Span]) -> dict[int, float]:
    """Self time (ns) of each span, keyed by span id.

    A span's self intervals are its ``[start, end)`` minus the union of the
    intervals its children cover (children may run on other threads).
    Where self intervals of spans on different threads overlap, each
    instant is split evenly between the spans running at that instant, so
    the self times of a batch add up to the wall time of its root span.
    On one thread this is exactly duration minus children.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    events: list[tuple[int, int, int]] = []  # (time, +1 open / -1 close, span id)
    for s in spans:
        for a, b in _subtract(s.start, s.end, _union(children[s.id])):
            events.append((a, 1, s.id))
            events.append((b, -1, s.id))
    events.sort(key=lambda e: (e[0], e[1]))
    self_ns: dict[int, float] = {s.id: 0.0 for s in spans}
    active: dict[int, int] = defaultdict(int)
    last = None
    for t, kind, sid in events:
        if last is not None and active and t > last:
            share = (t - last) / len(active)
            for open_id in active:
                self_ns[open_id] += share
        last = t
        if kind > 0:
            active[sid] += 1
        else:
            active[sid] -= 1
            if active[sid] == 0:
                del active[sid]
    return self_ns

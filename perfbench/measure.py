"""The benchmark's own arithmetic: percentiles, streamed-result gaps, spans.

Nothing here imports ``repro``; the functions take plain numbers and are
pinned by ``test_perfbench.py``.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: samples a reported percentile must have beyond it
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it.

    The value is the sample at 1-based rank ``ceil(q * n)`` of the sorted
    values; the count is how many samples rank above it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def samples_needed(q: float, beyond: int = TAIL_SAMPLES) -> int:
    """Smallest sample count whose ``q``-quantile has ``beyond`` samples above."""
    n = 1
    while n - max(1, math.ceil(q * n - 1e-9)) < beyond:
        n += 1
    return n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


class GapClock:
    """Per-cell time to verdict from a stream of ``on_result`` callbacks.

    With one pool worker, cells finish in submission order, so the gap
    between two consecutive callbacks is what the later cell cost a user
    watching ``--stream``.  The first gap runs from ``start``, the moment
    the sweep began.
    """

    def __init__(self, start: float,
                 clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._last = start
        #: gaps in seconds, in completion order
        self.gaps: List[float] = []
        #: submission indices, in completion order
        self.order: List[int] = []

    def __call__(self, index: int, _measurement=None) -> None:
        now = self._clock()
        self.gaps.append(now - self._last)
        self.order.append(index)
        self._last = now

    def by_index(self) -> Dict[int, float]:
        """Gap of each cell keyed by its submission index."""
        return dict(zip(self.order, self.gaps))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    layer: str
    start: float
    end: float
    #: index of the enclosing span in the tracer's list, or -1
    parent: int
    #: the cell the call worked for ("" outside any cell)
    cell: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "cell": self.cell}


class Tracer:
    """Keeps spans in memory; a span's parent is the innermost open span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str,
             cell: Optional[str] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        if cell is None:
            cell = self.spans[parent].cell if parent >= 0 else ""
        record = Span(name, layer, self._clock(), 0.0, parent, cell)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self._clock()

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open."""
        return any(self.spans[i].layer == layer for i in self._open)

    def outermost(self, layer: str) -> List[Span]:
        """Spans of ``layer`` with no ancestor in the same layer."""
        found = []
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].layer != layer:
                parent = self.spans[parent].parent
            if parent < 0:
                found.append(span)
        return found


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum of self time per layer: duration minus direct children.

    Spans nest and are recorded on one thread, so the direct children of a
    span cover disjoint parts of it and their durations add up.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    totals: Dict[str, float] = {}
    for i, span in enumerate(spans):
        totals[span.layer] = (totals.get(span.layer, 0.0)
                              + span.seconds - child_time[i])
    return totals

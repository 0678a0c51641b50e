"""The benchmark's own arithmetic: in-memory spans, self time, quartiles
and the derived per-layer ratios.

Standard library only, so importing it in a run process costs nothing
before that process starts timing ``import repro``.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    """One timed call into a layer; ``parent`` indexes the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Keeps spans in memory; nothing is written until the benchmark ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.clock(), float("nan"), parent, attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable``, recording one span per pull.

        The span of the pull that finds the iterator exhausted is kept
        too (it carries ``last=True``): generator clean-up runs there.
        """
        it = iter(iterable)
        done = object()
        while True:
            with self.span(name) as sp:
                item = next(it, done)
                if item is done:
                    sp.attrs["last"] = True
                else:
                    sp.attrs["size"] = getattr(item, "size", 1)
            if item is done:
                return
            yield item

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.attrs} for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for index, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for child in sorted(children.get(index, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.seconds - covered)
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the name's part before the first dot)."""
    totals: dict[str, float] = {}
    for sp, own in zip(spans, self_times(spans)):
        totals[sp.layer] = totals.get(sp.layer, 0.0) + own
    return totals


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float
    n: int


def summarize(values: list[float]) -> Summary:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no values to summarize")
    if len(values) == 1:
        v = float(values[0])
        return Summary(v, v, v, 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, len(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def parallel_efficiency(part_work_sum_s: float, workers: int,
                        scatter_s: float) -> float:
    """Sum of the partitions' in-process work over the wall time the
    workers had together: 1.0 means the scatter cost nothing extra."""
    return ratio(part_work_sum_s, workers * scatter_s)


def time_skew(elapsed_seconds: list[float]) -> float:
    """Slowest worker's wall time over the mean worker's."""
    if not elapsed_seconds:
        return 0.0
    return ratio(max(elapsed_seconds),
                 sum(elapsed_seconds) / len(elapsed_seconds))


@dataclass
class Tally:
    """Runs attempted and failed.  A run fails when its process raised,
    timed out or printed no result, or when its output failed a check."""

    attempted: int = 0
    failed: int = 0

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
        return error is None

    @property
    def failed_share(self) -> float:
        return ratio(self.failed, self.attempted)

"""Metrics registry: counters, gauges, and histograms.

The registry is the numeric side of :mod:`repro.obs` — bytes moved,
protocol picks, queue depths, bucket occupancy, retries. Instruments are
created on first use (``registry.counter("dart.bytes_pulled")``); with a
clock, a counter or gauge keeps every ``(time, value)`` sample, so
exporters can emit Chrome ``C`` (counter) events. A tracer's registry is
a fold of its step records (:attr:`repro.obs.tracer.Tracer.metrics`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import reduce
from itertools import accumulate, repeat
from operator import add, lt
from typing import Any

from repro.util.tables import TextTable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing count (events, bytes, retries).

    A counter with a clock keeps its series as two columns, ``times``
    and ``values`` (sample ``k`` is ``(times[k], values[k])``). A hot
    site may stamp a +1 in place — ``value += 1``, then append
    ``clock()`` and ``value`` — which is exactly what ``extend([1])``
    records (DESIGN.md §4c).
    """

    __slots__ = ("name", "value", "times", "values", "clock")

    def __init__(self, name: str,
                 clock: Callable[[], float] | None = None) -> None:
        self.name = name
        self.value: float = 0
        self.times: list[float] | None = None if clock is None else []
        self.values: list[float] | None = None if clock is None else []
        #: The instrument's own clock; a registry re-points it
        #: (:meth:`MetricsRegistry.rebind_clock`), so read it per sample.
        self.clock = clock

    def extend(self, deltas: Sequence[float],
               times: Sequence[float] | None = None) -> None:
        """Add each delta in turn, the ``k``-th sampled at ``times[k]``
        (default: now on the clock); a negative delta refuses them all."""
        if any(map(lt, deltas, repeat(0))):
            raise ValueError(f"counter {self.name!r} cannot decrease (delta="
                             f"{next(d for d in deltas if d < 0)})")
        values = list(accumulate(deltas, initial=self.value))
        self.value = values[-1]
        del values[0]
        if self.times is not None:
            self.times.extend(times or [self.clock()] * len(values))
            self.values.extend(values)


class Gauge:
    """Last-written value with running min/max (queue depth, live bytes).

    Its series is kept as columns, like :class:`Counter`'s.
    """

    __slots__ = ("name", "value", "vmin", "vmax", "n_samples", "times",
                 "values", "clock")

    def __init__(self, name: str,
                 clock: Callable[[], float] | None = None) -> None:
        self.name = name
        self.value: float = 0.0
        self.vmin: float = math.inf
        self.vmax: float = -math.inf
        self.n_samples = 0
        self.times: list[float] | None = None if clock is None else []
        self.values: list[float] | None = None if clock is None else []
        self.clock = clock

    def set(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float],
               times: Sequence[float] | None = None) -> None:
        """Write each value in turn, the ``k``-th sampled at ``times[k]``
        (default: now on the clock), as the step and probe folds do."""
        self.value = values[-1]
        self.vmin = min(self.vmin, *values)
        self.vmax = max(self.vmax, *values)
        self.n_samples += len(values)
        if self.times is not None:
            self.times.extend(times or [self.clock()] * len(values))
            self.values.extend(values)


def nearest_rank(ordered: list[float], p: float) -> float:
    """The ``p``-th percentile (``p`` in [0, 100]) of a non-empty
    ascending list, by nearest rank — defined for any n >= 1."""
    rank = max(0, min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


class Histogram:
    """Distribution of observed values (transfer sizes, span durations).

    Every observation is kept, and the count, total, extremes and
    percentiles are read from them. The sorted view is cached until the
    next :meth:`extend`, so repeated ``percentile()`` calls (two per
    histogram per registry ``snapshot()``) cost one sort at most.
    """

    __slots__ = ("name", "values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []
        self._sorted: list[float] | None = None

    def extend(self, values: Sequence[float],
               times: Sequence[float] | None = None) -> None:
        """Keep each value (``times`` is not: there is no series)."""
        self.values.extend(values)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return reduce(add, self.values, 0.0)  # in observation order

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def vmin(self) -> float:
        return min(math.inf, *self.values) if self.values else 0.0

    @property
    def vmax(self) -> float:
        return max(-math.inf, *self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return nearest_rank(self._sorted, p)


class MetricsRegistry:
    """Name-keyed collection of instruments, created on first use."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def rebind_clock(self, clock: Callable[[], float]) -> None:
        """Stamp every instrument, present and future, from ``clock``.

        Instruments call their clock directly, so a tracer whose trace
        clock moves to a new engine re-points them here, once, instead
        of routing every update through an indirection.
        """
        self._clock = clock
        for inst in (*self.counters.values(), *self.gauges.values()):
            inst.clock = clock

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name, self._clock)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name, self._clock)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All current values as plain (JSON-safe) data; instruments
        that were created (bound by a site) but never updated stay out."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())
                         if c.value or c.times},
            "gauges": {n: {"last": g.value, "min": g.vmin, "max": g.vmax,
                           "samples": g.n_samples}
                       for n, g in sorted(self.gauges.items())
                       if g.n_samples},
            "histograms": {n: {"count": h.count, "total": h.total,
                               "mean": h.mean, "min": h.vmin, "max": h.vmax,
                               "p50": h.percentile(50), "p99": h.percentile(99)}
                           for n, h in sorted(self.histograms.items())
                           if h.count},
        }

    def summary(self) -> str:
        """Aligned text tables of every instrument (via ``util.tables``)."""
        snap = self.snapshot()
        parts: list[str] = []
        if snap["counters"]:
            t = TextTable(["counter", "value"], title="counters")
            for name, value in snap["counters"].items():
                t.add_row([name, value])
            parts.append(t.render())
        if snap["gauges"]:
            t = TextTable(["gauge", "last", "min", "max", "samples"],
                          title="gauges")
            for name, g in snap["gauges"].items():
                t.add_row([name, g["last"], g["min"], g["max"], g["samples"]])
            parts.append(t.render())
        if snap["histograms"]:
            t = TextTable(["histogram", "count", "mean", "p50", "p99", "max"],
                          title="histograms")
            for name, h in snap["histograms"].items():
                t.add_row([name, h["count"], h["mean"], h["p50"], h["p99"],
                           h["max"]])
            parts.append(t.render())
        return "\n\n".join(parts) if parts else "(no metrics)"


"""Metrics registry: counters, gauges, and histograms.

The registry is the numeric side of :mod:`repro.obs` — bytes moved,
protocol picks, queue depths, bucket occupancy, retries. Instruments are
created on first use (``registry.counter("dart.bytes_pulled")``) and are
cheap enough to update from hot paths; when the registry is created with a
clock and ``record_series=True`` every update also appends a
``(time, value)`` sample — to a time column and a value column — so
exporters can emit Chrome ``C`` (counter) events and queue-depth
timelines.

A :data:`NULL_METRICS` registry backs the disabled tracer: its instruments
are shared no-op singletons, so instrumentation sites pay one attribute
lookup and a no-op call when tracing is off.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.util.tables import TextTable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
]


class Counter:
    """Monotonically increasing count (events, bytes, retries).

    A recording counter keeps its series as two columns, ``times`` and
    ``values`` (sample ``k`` is ``(times[k], values[k])``), so an update
    appends two scalars and builds no tuple. A hot site may stamp a +1
    in place instead of calling :meth:`inc` — ``value += 1``, then
    append ``clock()`` and ``value`` — which is exactly what ``inc(1)``
    records (DESIGN.md §4c).
    """

    __slots__ = ("name", "value", "times", "values", "clock")

    def __init__(self, name: str, clock: Callable[[], float] | None = None,
                 record_series: bool = False) -> None:
        self.name = name
        self.value: float = 0
        recording = record_series and clock is not None
        self.times: list[float] | None = [] if recording else None
        self.values: list[float] | None = [] if recording else None
        #: The instrument's own clock; a registry re-points it
        #: (:meth:`MetricsRegistry.rebind_clock`), so read it per sample.
        self.clock = clock

    def inc(self, delta: float = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(delta={delta})")
        value = self.value = self.value + delta
        times = self.times
        if times is not None:
            times.append(self.clock())
            self.values.append(value)


class Gauge:
    """Last-written value with running min/max (queue depth, live bytes).

    Its series is kept as columns, like :class:`Counter`'s.
    """

    __slots__ = ("name", "value", "vmin", "vmax", "n_samples", "times",
                 "values", "clock")

    def __init__(self, name: str, clock: Callable[[], float] | None = None,
                 record_series: bool = False) -> None:
        self.name = name
        self.value: float = 0.0
        self.vmin: float = float("inf")
        self.vmax: float = float("-inf")
        self.n_samples = 0
        recording = record_series and clock is not None
        self.times: list[float] | None = [] if recording else None
        self.values: list[float] | None = [] if recording else None
        self.clock = clock

    def set(self, value: float) -> None:
        self.value = value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.n_samples += 1
        times = self.times
        if times is not None:
            times.append(self.clock())
            self.values.append(value)


def nearest_rank(ordered: list[float], p: float) -> float:
    """The ``p``-th percentile (``p`` in [0, 100]) of a non-empty
    ascending list, by nearest rank — defined for any n >= 1."""
    rank = max(0, min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


class Histogram:
    """Distribution of observed values (transfer sizes, span durations).

    Every observation is kept and backs the percentiles. The sorted view
    is cached between observations, so repeated ``percentile()`` calls
    (two per histogram per registry ``snapshot()``) cost one sort at most.
    """

    __slots__ = ("name", "values", "_count", "_total",
                 "_vmin", "_vmax", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []
        self._count = 0
        self._total = 0.0
        self._vmin = float("inf")
        self._vmax = float("-inf")
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value < self._vmin:
            self._vmin = value
        if value > self._vmax:
            self._vmax = value
        self.values.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def vmin(self) -> float:
        return self._vmin if self._count else 0.0

    @property
    def vmax(self) -> float:
        return self._vmax if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return nearest_rank(self._sorted, p)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled tracer."""

    __slots__ = ()
    name = "null"
    value = 0
    series = None
    values: list[float] = []

    def set(self, value: float = 1) -> None:
        pass

    #: ``Counter.inc`` and ``Histogram.observe``: the same no-op.
    inc = observe = set


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Name-keyed collection of instruments, created on first use."""

    def __init__(self, clock: Callable[[], float] | None = None,
                 record_series: bool = False) -> None:
        self._clock = clock
        self._record_series = record_series
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
            inst = self.counters[name] = Counter(name, self._clock,
                                                 self._record_series)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name, self._clock,
                                             self._record_series)
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


class _NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments are shared no-ops (disabled tracing)."""

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    #: Every kind of instrument is the one shared no-op, so no lookup on
    #: the null registry ever creates one.
    counter = histogram = gauge  # type: ignore[assignment]


NULL_METRICS = _NullMetricsRegistry()

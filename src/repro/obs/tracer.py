"""Dual-clock tracer: spans, instants, and counters over actor lanes.

Every span records *both* clocks:

* the **trace clock** (``t_start``/``t_end``) — the DES simulated time
  when an :class:`~repro.des.engine.Engine` has attached itself to the
  tracer (the engine does this automatically at construction when tracing
  is enabled), otherwise wall seconds since the tracer was created;
* the **wall clock** (``wall_start``/``wall_end``) — ``perf_counter``
  time of the real numpy work, always.

Spans live on *lanes* — one per actor (a rank, a staging bucket, the
scheduler, the sim driver) — and nest per lane: a span begun while another
is open on the same lane records it as its parent. Overlapping,
non-nesting spans on one lane (streaming prefetch pulls) are legal; the
Chrome exporter splits them onto sub-rows.

Storage is one append-only event log (``tracer.log``, see
:mod:`repro.obs.events`): a span is appended when it closes, an instant
when it fires, and the probe sampler and capacity ledger of the run
append their records to the same list. :class:`Trace` — the span and
instant lists, the tag index — is a fold over that log, and an attached
:class:`~repro.obs.live.TelemetryBus` is a cursor window on it.

Tracing is off by default and *near-zero cost* when off: the module-level
singleton is a :class:`NullTracer` whose ``enabled`` flag instrument sites
check once (or whose methods are shared no-ops). Enable it for a run with
the :func:`tracing` context manager (or :func:`set_tracer`) **before**
constructing the objects to observe — sites capture the tracer at
construction.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Any

from repro.obs.flow import FlowContext, FlowHop
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "SpanRecord",
    "InstantRecord",
    "Trace",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
]


@dataclass(eq=False, slots=True)
class SpanRecord:
    """One traced activity on a lane, timed against both clocks."""

    name: str
    lane: str
    span_id: int
    parent_id: int | None
    t_start: float
    wall_start: float
    category: str | None = None
    tags: dict[str, Any] = field(default_factory=dict)
    t_end: float = math.nan
    wall_end: float = math.nan
    #: Flow ids arriving at / leaving this span (None until a flow binds,
    #: so untraced spans pay nothing for the causal layer).
    flow_in: list[int] | None = None
    flow_out: list[int] | None = None

    #: Bus kind of this record class (see :mod:`repro.obs.events`).
    kind = "span"

    @property
    def closed(self) -> bool:
        return self.t_end == self.t_end  # NaN until the span ends

    @property
    def duration(self) -> float:
        """Trace-clock duration (DES seconds when an engine is attached)."""
        return self.t_end - self.t_start

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def stage(self) -> str | None:
        """The pipeline stage this span charges (``stage`` tag), if any."""
        return self.tags.get("stage")


@dataclass(eq=False, slots=True)
class InstantRecord:
    """A point event on a lane (data-ready, assignment, notification)."""

    name: str
    lane: str
    t: float
    wall_t: float
    tags: dict[str, Any] = field(default_factory=dict)

    kind = "instant"


_SPAN_ID = attrgetter("span_id")


class Trace:
    """Everything one tracer recorded, folded from its event log.

    ``log`` is the tracer's append-only record list; ``stacks`` are its
    per-lane open spans, which reach the log only when they close. The
    span and instant lists are folded incrementally (only records
    appended since the last read are visited) and kept in ``span_id``
    (begin) order; the closed-span list, the span map and the per-tag
    indexes are derived from them once per growth of the log. They are
    the fold's own: read them, do not mutate.
    """

    def __init__(self, log: list[Any] | None = None,
                 stacks: dict[str, list[SpanRecord]] | None = None) -> None:
        self.log: list[Any] = [] if log is None else log
        self.flows: list[FlowContext] = []
        self._stacks = {} if stacks is None else stacks
        self._folded = 0
        self._spans: list[SpanRecord] = []
        self._instants: list[InstantRecord] = []
        self._closed: list[SpanRecord] | None = None
        self._span_map: dict[int, SpanRecord] | None = None
        #: tag key -> tag value -> closed spans carrying it (built per key
        #: on its first query).
        self._by_tag: dict[str, dict[Any, list[SpanRecord]]] = {}

    def _fold(self) -> None:
        log = self.log
        if len(log) == self._folded:
            return
        for rec in log[self._folded:]:
            if type(rec) is SpanRecord:
                self._spans.append(rec)
            elif type(rec) is InstantRecord:
                self._instants.append(rec)
        # Spans reach the log in close order; the view is begin-ordered.
        self._spans.sort(key=_SPAN_ID)
        self._folded = len(log)
        self._closed = self._span_map = None
        self._by_tag = {}

    @property
    def spans(self) -> list[SpanRecord]:
        """Every span, open ones included, in begin order."""
        self._fold()
        still_open = [s for stack in self._stacks.values() for s in stack]
        if not still_open:
            return self._spans
        return sorted(self._spans + still_open, key=_SPAN_ID)

    @property
    def instants(self) -> list[InstantRecord]:
        self._fold()
        return self._instants

    def lanes(self) -> list[str]:
        seen = {s.lane for s in self.spans} | {i.lane for i in self.instants}
        return sorted(seen)

    def closed_spans(self) -> list[SpanRecord]:
        """Every closed span, in begin order (cached until the log grows)."""
        self._fold()
        if self._closed is None:
            self._closed = [s for s in self._spans
                            if s.t_end == s.t_end]  # not NaN
        return self._closed

    def span_map(self) -> dict[int, SpanRecord]:
        """Span id -> span, for resolving flow chains (cached until the
        log grows; never while spans are still open)."""
        spans = self.spans
        if spans is not self._spans:
            return {s.span_id: s for s in spans}
        if self._span_map is None:
            self._span_map = {s.span_id: s for s in spans}
        return self._span_map

    def _tag_index(self, key: str) -> dict[Any, list[SpanRecord]]:
        """Tag value -> closed spans tagged ``key`` with it, built on the
        first query of ``key`` since the log last grew.

        Unhashable tag *values* are left out of the index; they are only
        reachable through the linear fallback in :meth:`spans_with`
        (which an unhashable *query* value triggers).
        """
        self._fold()
        index = self._by_tag.get(key)
        if index is None:
            index = self._by_tag[key] = {}
            for s in self.closed_spans():
                tags = s.tags
                if key in tags:
                    try:
                        index.setdefault(tags[key], []).append(s)
                    except TypeError:
                        pass
        return index

    def spans_with(self, **tags: Any) -> list[SpanRecord]:
        """Closed spans whose tags include every given key/value.

        Served from per-key tag indexes (one dict probe per tag) instead
        of a full scan; blame and diff call this per step, per stage.
        """
        if not tags:
            return list(self.closed_spans())
        try:
            groups = [self._tag_index(k).get(v, []) for k, v in tags.items()]
        except TypeError:  # unhashable query value: fall back to a scan
            return [s for s in self.closed_spans()
                    if all(s.tags.get(k) == v for k, v in tags.items())]
        if len(groups) == 1:
            return list(groups[0])
        return [s for s in min(groups, key=len)
                if all(s.tags.get(k) == v for k, v in tags.items())]

    def stage_totals(self, clock: str = "trace") -> dict[str, float]:
        """Total duration per ``stage`` tag (spans without one are skipped).

        Stage-tagged spans never nest inside same-stage spans at the
        instrumentation sites, so a plain sum does not double count.
        """
        if clock not in ("trace", "wall"):
            raise ValueError(f"clock must be 'trace' or 'wall', got {clock!r}")
        out: dict[str, float] = {}
        for s in self.closed_spans():
            stage = s.tags.get("stage")
            if stage is None:
                continue
            dur = (s.t_end - s.t_start if clock == "trace"
                   else s.wall_end - s.wall_start)
            out[stage] = out.get(stage, 0.0) + dur
        return out


class Tracer:
    """Recording tracer. See the module docstring for the clock model."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._wall_epoch = time.perf_counter()
        self._clock = clock or (lambda: time.perf_counter() - self._wall_epoch)
        self.metrics = MetricsRegistry(clock=self._clock, record_series=True)
        #: The run's event log (:mod:`repro.obs.events`): closed spans,
        #: instants, sample rows, ledger deltas and bus events, in emit
        #: order. Append-only; never trimmed.
        self.log: list[Any] = []
        self._emit = self.log.append
        self._stacks: dict[str, list[SpanRecord]] = {}
        self.trace = Trace(self.log, self._stacks)
        self._ids = itertools.count(1)
        self._flow_ids = itertools.count(1)
        #: Live telemetry bus (:class:`repro.obs.live.TelemetryBus`)
        #: windowing the log, or None.
        self.bus: Any = None
        #: Ambient tags (tenant/job ids) merged into every span/instant
        #: opened while a :meth:`context` block is active. Replaced, never
        #: mutated, so observers may read it without copying.
        self.ctx: dict[str, Any] = {}

    # -- clocks --------------------------------------------------------------

    def now(self) -> float:
        """Current trace-clock time (DES time once an engine attaches)."""
        return self._clock()

    def attach_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.metrics.rebind_clock(clock)

    def attach_engine(self, engine: Any) -> None:
        """Use ``engine.now`` as the trace clock (the DES engine calls this
        from its constructor when tracing is enabled; last engine wins)."""
        self.attach_clock(partial(getattr, engine, "now"))

    # -- live bus & ambient context ------------------------------------------

    def attach_bus(self, bus: Any) -> Any:
        """Open a live :class:`~repro.obs.live.TelemetryBus` window on the
        log: every record appended from now on is one of its events
        (pass None to detach; a detached bus keeps what it had seen)."""
        if self.bus is not None and self.bus is not bus:
            self.bus.detach()
        self.bus = bus
        if bus is not None:
            bus.attach(self.log)
        return bus

    @contextmanager
    def context(self, **tags: Any) -> Iterator[dict[str, Any]]:
        """Merge ``tags`` into the ambient context for the block.

        Every span, instant and bus event recorded inside the block
        carries these tags — this is how tenant/job attribution crosses
        the two-level DES boundary (the service engine opens the context,
        and everything the inner replay engine records inherits it).
        None-valued tags are skipped; inner contexts shadow outer ones
        and the previous context is restored on exit.
        """
        previous = self.ctx
        merged = dict(previous)
        merged.update((k, v) for k, v in tags.items() if v is not None)
        self.ctx = merged
        try:
            yield merged
        finally:
            self.ctx = previous

    def context_tags(self) -> dict[str, Any]:
        """A copy of the ambient context tags currently in effect."""
        return dict(self.ctx)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, lane: str = "main",
              category: str | None = None, **tags: Any) -> SpanRecord:
        """Open a span on ``lane``; the open span below it (if any) becomes
        its parent. Close it with :meth:`end` (LIFO order not required)."""
        stack = self._stacks.get(lane)
        if stack is None:
            stack = self._stacks[lane] = []
        if self.ctx:
            tags = {**self.ctx, **tags}
        rec = SpanRecord(name, lane, next(self._ids),
                         stack[-1].span_id if stack else None,
                         self._clock(), time.perf_counter(), category, tags)
        stack.append(rec)
        return rec

    def end(self, span: SpanRecord, **tags: Any) -> SpanRecord:
        if span.t_end == span.t_end:  # not NaN
            raise RuntimeError(f"span {span.name!r} already ended")
        span.t_end = self._clock()
        span.wall_end = time.perf_counter()
        if tags:
            span.tags.update(tags)
        stack = self._stacks.get(span.lane)
        if stack and span in stack:
            stack.remove(span)
        self._emit(span)
        return span

    @contextmanager
    def span(self, name: str, lane: str = "main",
             category: str | None = None, **tags: Any) -> Iterator[SpanRecord]:
        rec = self.begin(name, lane, category, **tags)
        try:
            yield rec
        finally:
            self.end(rec)

    def add_span(self, name: str, lane: str, t_start: float, t_end: float,
                 category: str | None = None,
                 parent_id: int | None = None, **tags: Any) -> SpanRecord:
        """Record an already-timed span with explicit trace-clock times
        (model-generated timelines, e.g. the closed-form sim schedule)."""
        if t_end < t_start:
            raise ValueError(f"span ends ({t_end}) before it starts "
                             f"({t_start})")
        if self.ctx:
            tags = {**self.ctx, **tags}
        wall = time.perf_counter()
        rec = SpanRecord(name, lane, next(self._ids), parent_id, t_start,
                         wall, category, tags, t_end, wall)
        self._emit(rec)
        return rec

    # -- causal flows --------------------------------------------------------

    def flow_begin(self, kind: str, src_span: SpanRecord | None = None,
                   t: float | None = None, **tags: Any) -> FlowContext:
        """Open a causal flow, optionally anchored at a producer span.

        The returned context is carried by value through every hand-off;
        downstream layers append hops with :meth:`flow_step` /
        :meth:`flow_through` and close it with :meth:`flow_end`.
        """
        flow = FlowContext(
            next(self._flow_ids), kind, self._clock() if t is None else t,
            src_span.span_id if src_span is not None else None, tags=tags)
        if src_span is not None:
            if src_span.flow_out is None:
                src_span.flow_out = []
            src_span.flow_out.append(flow.flow_id)
        self.trace.flows.append(flow)
        return flow

    def flow_step(self, flow: FlowContext | None, kind: str, lane: str,
                  t: float | None = None, **tags: Any) -> FlowHop | None:
        """Record a checkpoint hop: the flow reached ``lane`` at ``t``,
        and the time since the previous hop is explained by ``kind``."""
        if flow is None:
            return None
        hop = FlowHop(self._clock() if t is None else t, kind, lane, None,
                      tags)
        flow.hops.append(hop)
        return hop

    def flow_through(self, flow: FlowContext | None, kind: str,
                     span: SpanRecord, **tags: Any) -> FlowHop | None:
        """Record the flow entering ``span`` (a wire transfer, a bucket
        task body): hop time is the span's start, and the span carries
        the flow id both in and out."""
        if flow is None:
            return None
        hop = FlowHop(span.t_start, kind, span.lane, span.span_id, tags)
        flow.hops.append(hop)
        if span.flow_in is None:
            span.flow_in = []
        span.flow_in.append(flow.flow_id)
        if span.flow_out is None:
            span.flow_out = []
        span.flow_out.append(flow.flow_id)
        return hop

    def flow_end(self, flow: FlowContext | None, kind: str,
                 span: SpanRecord, **tags: Any) -> FlowContext | None:
        """Close the flow at its destination span (the in-transit compute
        span that consumed the work)."""
        if flow is None:
            return None
        flow.hops.append(FlowHop(span.t_start, kind, span.lane,
                                 span.span_id, tags))
        flow.dst_span_id = span.span_id
        if span.flow_in is None:
            span.flow_in = []
        span.flow_in.append(flow.flow_id)
        return flow

    # -- instants & counters -------------------------------------------------

    def instant(self, name: str, lane: str = "main", **tags: Any
                ) -> InstantRecord:
        if self.ctx:
            tags = {**self.ctx, **tags}
        rec = InstantRecord(name, lane, self._clock(), time.perf_counter(),
                            tags)
        self._emit(rec)
        return rec

    def counter(self, name: str, delta: float = 1) -> None:
        """Shorthand for ``metrics.counter(name).inc(delta)``."""
        self.metrics.counter(name).inc(delta)


class _NullSpan:
    """Inert span handed out by the disabled tracer."""

    __slots__ = ()
    name = lane = ""
    span_id = 0
    parent_id = None
    t_start = t_end = wall_start = wall_end = math.nan
    category = None
    closed = False
    stage = None
    flow_in = flow_out = None

    @property
    def tags(self) -> dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every operation is a shared no-op.

    Instrument sites hold a reference to this singleton when tracing is
    off, so the per-call cost is an attribute check (``tracer.enabled``)
    or a no-op method call — the "near-zero overhead when disabled"
    contract the hot paths rely on.
    """

    enabled = False
    metrics = NULL_METRICS
    #: No bus and no ambient context under the null tracer.
    bus = None
    ctx: Any = MappingProxyType({})

    @property
    def trace(self) -> Trace:
        return Trace()

    def now(self) -> float:
        return 0.0

    def attach_clock(self, clock: Callable[[], float]) -> None:
        pass

    def attach_engine(self, engine: Any) -> None:
        pass

    def attach_bus(self, bus: Any) -> None:
        return None

    def context(self, **tags: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def context_tags(self) -> dict[str, Any]:
        return {}

    def begin(self, name: str, lane: str = "main",
              category: str | None = None, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def end(self, span: Any, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def span(self, name: str, lane: str = "main",
             category: str | None = None, **tags: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def add_span(self, name: str, lane: str, t_start: float, t_end: float,
                 category: str | None = None,
                 parent_id: int | None = None, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, lane: str = "main", **tags: Any) -> None:
        return None

    def counter(self, name: str, delta: float = 1) -> None:
        pass

    # Flow propagation compiles out: a None flow short-circuits every
    # hop site, so hot paths pay one ``is None`` check at most.

    def flow_begin(self, kind: str, src_span: Any = None,
                   t: float | None = None, **tags: Any) -> None:
        return None

    def flow_step(self, flow: Any, kind: str, lane: str,
                  t: float | None = None, **tags: Any) -> None:
        return None

    def flow_through(self, flow: Any, kind: str, span: Any,
                     **tags: Any) -> None:
        return None

    def flow_end(self, flow: Any, kind: str, span: Any,
                 **tags: Any) -> None:
        return None


NULL_TRACER = NullTracer()

_TRACER: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the shared :data:`NULL_TRACER` when disabled)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    global _TRACER
    _TRACER = tracer
    return tracer


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Context manager: install a tracer, restore the previous one after."""
    previous = get_tracer()
    active = tracer or Tracer()
    set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)

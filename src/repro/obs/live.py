"""`repro.obs.live` — the streaming telemetry plane.

Everything else in :mod:`repro.obs` is post-hoc: traces, metrics and
blame reports only exist once a replay has drained. This module turns the
same probe/metric/flow machinery into a *live*, per-tenant ops surface:

* :class:`TelemetryBus` — a bounded cursor window on the run's event
  log (:mod:`repro.obs.events`) with subscriber cursors and
  drop-counting backpressure. Closed spans, instants, probe samples and
  ledger deltas are already in the log — the sites that emit them never
  touch the bus — and SLO alerts, controller decisions and service
  job-lifecycle transitions are published onto it *as they happen in
  DES time*. The bus attaches to a recording
  :class:`~repro.obs.tracer.Tracer` (``tracer.attach_bus(bus)``);
  :class:`BusEvent` objects are built when a subscriber polls, never
  per emit, and under the shared :data:`~repro.obs.tracer.NULL_TRACER`
  there is no log and nothing to window, so the <5% disabled-tracer
  overhead guard is untouched.
* :class:`SloObjective` + :class:`BurnRateMonitor` — tenant-scoped SLO
  objectives with rolling burn-rate evaluation over fast and slow
  windows (the multi-window SRE pattern): an observation is *bad* when
  it exceeds the objective's target, the burn rate is the bad fraction
  over the window divided by the error budget, and a structured
  :class:`Alert` fires when both windows burn too hot. A sustained
  violation is one alert until the objective recovers. It is the one
  SLO engine: the probe sampler's rules are zero-window objectives.
* :func:`render_top` — the refreshing text frame behind ``repro serve
  --follow``: per-tenant queue depth, cache hit rate, worker occupancy,
  active alerts and a controller-decision ticker over a draining
  :class:`~repro.service.api.CampaignService`.

Determinism contract: bus events carry only DES-clock timestamps and
DES-derived payloads — no wall time, no host state — so the JSONL stream
of a same-seed campaign is byte-identical across runs.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.events import (
    UNATTRIBUTED,
    LedgerEntry,
    SampleRow,
    TransferEntry,
)
from repro.obs.tracer import InstantRecord, SpanRecord

__all__ = [
    "Alert",
    "BusEvent",
    "BusSubscriber",
    "BurnRateMonitor",
    "SloObjective",
    "TelemetryBus",
    "default_objectives",
    "event_to_json",
    "render_top",
]

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.api import CampaignService

#: Canonical event kinds (the ``kind`` field of every :class:`BusEvent`).
KIND_SPAN = "span"
KIND_INSTANT = "instant"
KIND_PROBE = "probe"
KIND_ALERT = "alert"
KIND_JOB = "job"
KIND_DECISION = "decision"
KIND_CAPACITY = "capacity"


@dataclass(frozen=True)
class BusEvent:
    """One telemetry event on the bus (immutable).

    ``t`` is the publishing clock's time: service-engine seconds for
    service-layer events, job-local replay seconds for events published
    inside an inner replay engine. ``tenant``/``job_id`` attribute the
    event to its tenant — propagated through the two-level DES by the
    tracer's ambient context (see :meth:`Tracer.context
    <repro.obs.tracer.Tracer.context>`).
    """

    seq: int
    t: float
    kind: str
    name: str
    lane: str
    tenant: str | None
    job_id: str | None
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "kind": self.kind,
                "name": self.name, "lane": self.lane, "tenant": self.tenant,
                "job_id": self.job_id, "data": self.data}


def event_to_json(event: BusEvent) -> str:
    """One canonical JSONL line for an event (sorted keys, ``str``
    fallback for non-JSON payload values — byte-stable across runs)."""
    return json.dumps(event.to_dict(), sort_keys=True, default=str,
                      separators=(",", ":"))


def _attributed(owner: str) -> str | None:
    return None if owner == UNATTRIBUTED else owner


def _fold_events(log: list[Any], lo: int, hi: int, offset: int
                 ) -> list[BusEvent]:
    """The bus events of log slots ``[lo, hi)``; slot ``i`` is sequence
    number ``i + offset``."""
    events: list[BusEvent] = []
    for i in range(lo, hi):
        rec = log[i]
        cls = type(rec)
        if cls is BusEvent:
            events.append(rec)
            continue
        if cls is SpanRecord:
            tags = rec.tags
            fields = (rec.t_end, rec.name, rec.lane,
                      tags.get("tenant"), tags.get("job"),
                      {"t_start": rec.t_start,
                       "duration": rec.t_end - rec.t_start,
                       "stage": tags.get("stage"), "category": rec.category})
        elif cls is InstantRecord:
            tags = rec.tags
            fields = (rec.t, rec.name, rec.lane,
                      tags.get("tenant"), tags.get("job"),
                      {k: v for k, v in tags.items()
                       if k != "tenant" and k != "job"})
        elif cls is SampleRow:
            k = i - rec.pos0
            fields = (rec.t, rec.names[k], "probe", rec.tenant, rec.job,
                      {"value": rec.values[k]})
        elif cls is TransferEntry:
            fields = (rec.t_end, "capacity.transfer", rec.shard,
                      _attributed(rec.tenant), _attributed(rec.job),
                      {"nbytes": rec.nbytes, "protocol": rec.protocol,
                       "src": rec.src, "dest": rec.dest,
                       "t_start": rec.t_start, "analysis": rec.analysis})
        elif cls is LedgerEntry:
            data = {"region": rec.region_id, "nbytes": rec.nbytes,
                    "resident": rec.resident, "analysis": rec.analysis,
                    "step": rec.timestep}
            if rec.op == "leak":
                del data["resident"]
            fields = (rec.t, "capacity." + rec.op, rec.shard,
                      _attributed(rec.tenant), _attributed(rec.job), data)
        else:
            raise TypeError(f"log slot {i} holds no event record: {rec!r}")
        t, name, lane, tenant, job, data = fields
        events.append(BusEvent(i + offset, t, rec.kind, name, lane, tenant,
                               job, data))
    return events


class BusSubscriber:
    """A cursor over the bus. Falling behind the window loses the oldest
    events — :attr:`dropped` counts them; the cursor never goes
    backwards."""

    __slots__ = ("bus", "name", "cursor", "dropped")

    def __init__(self, bus: "TelemetryBus", name: str) -> None:
        self.bus = bus
        self.name = name
        #: Next sequence number this subscriber will read.
        self.cursor = bus.start_seq
        #: Events this subscriber lost to window overflow.
        self.dropped = 0

    def poll(self) -> list[BusEvent]:
        """Events published since the last poll (oldest first).

        If the window overflowed past the cursor, the lost events are
        added to :attr:`dropped` and the cursor jumps forward to the
        oldest retained event — it never moves backwards. The cost is
        the events returned, not the window size.
        """
        bus = self.bus
        start = bus.start_seq
        if self.cursor < start:
            self.dropped += start - self.cursor
            self.cursor = start
        head = bus.published
        events = bus.events(self.cursor, head)
        self.cursor = head
        return events


class TelemetryBus:
    """A bounded cursor window on an event log.

    The bus stores nothing per event. Its log is the attached tracer's
    (:meth:`Tracer.attach_bus <repro.obs.tracer.Tracer.attach_bus>`) or,
    standalone, a private list; either way one log slot is one event and
    ``seq = slot + offset``, so :attr:`published`, :attr:`start_seq` and
    :attr:`dropped_total` are arithmetic on positions. The window holds
    the newest ``capacity`` events; older ones are *dropped* — the
    backpressure signal — and subscribers, each with their own cursor,
    observe their personal losses via :attr:`BusSubscriber.dropped`.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._log: list[Any] = []
        #: Sequence number of ``_log[0]``.
        self._offset = 0
        #: A tracer's log is shared and never trimmed; a private one is
        #: cut back to the window as it moves.
        self._shared = False
        self._dropped_by_kind: dict[str, int] = {}
        #: Evictions below this sequence number are counted already.
        self._drops_folded = 0
        self.subscribers: list[BusSubscriber] = []

    @property
    def published(self) -> int:
        """Total events ever published (the next event's seq)."""
        return len(self._log) + self._offset

    @property
    def start_seq(self) -> int:
        """Sequence number of the oldest retained event."""
        return max(0, self.published - self.capacity)

    @property
    def dropped_total(self) -> int:
        """Events evicted from the window (overflow backpressure)."""
        return self.start_seq

    @property
    def dropped_by_kind(self) -> dict[str, int]:
        """Evictions broken down by the evicted event's ``kind`` — loss
        of any one stream (e.g. ``capacity``) stays attributable even
        when another kind dominates the churn."""
        self._fold_drops()
        return self._dropped_by_kind

    def _fold_drops(self) -> None:
        """Count the kinds of the events evicted since the last fold
        (run before their slots go out of reach)."""
        counts, log, offset = self._dropped_by_kind, self._log, self._offset
        for seq in range(self._drops_folded, self.start_seq):
            kind = log[seq - offset].kind
            counts[kind] = counts.get(kind, 0) + 1
        self._drops_folded = self.start_seq

    def __len__(self) -> int:
        return self.published - self.start_seq

    def attach(self, log: list[Any]) -> None:
        """Window ``log`` from its current end on (the tracer calls this).
        Events already on the bus are carried over, sequence intact."""
        if log is not self._log:
            self.detach()
            self._offset -= len(log)
            log.extend(self._log)
            self._log, self._shared = log, True

    def detach(self) -> None:
        """Stop following a shared log: keep the retained window as
        built events (independent of the tracer's positions) and carry
        on from the same sequence."""
        if self._shared:
            self._fold_drops()
            start = self.start_seq
            self._log = self.events(start, self.published)
            self._offset, self._shared = start, False

    def publish(self, kind: str, name: str, *, t: float, lane: str = "bus",
                tenant: str | None = None, job_id: str | None = None,
                **data: Any) -> BusEvent:
        log = self._log
        event = BusEvent(len(log) + self._offset, t, kind, name, lane,
                         tenant, job_id, data)
        log.append(event)
        if not self._shared and len(log) > 2 * self.capacity:
            self._fold_drops()
            trimmed = len(log) - self.capacity
            del log[:trimmed]
            self._offset += trimmed
        return event

    def events(self, lo: int, hi: int) -> list[BusEvent]:
        """The retained events with ``lo <= seq < hi``, oldest first."""
        lo = max(lo, self.start_seq)
        hi = min(hi, self.published)
        return _fold_events(self._log, lo - self._offset, hi - self._offset,
                            self._offset)

    def latest(self, kinds: tuple[str, ...], n: int) -> list[BusEvent]:
        """The newest ``n`` retained events of the given kinds, oldest
        first (only the matches are built)."""
        log, offset = self._log, self._offset
        seqs = [seq for seq in range(self.start_seq, self.published)
                if log[seq - offset].kind in kinds]
        return [event for seq in seqs[max(len(seqs) - n, 0):]
                for event in self.events(seq, seq + 1)]

    def subscribe(self, name: str = "subscriber") -> BusSubscriber:
        sub = BusSubscriber(self, name)
        self.subscribers.append(sub)
        return sub


# ---------------------------------------------------------------------------
# SLO objectives and rolling burn-rate evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloObjective:
    """A tenant-scoped service-level objective with an error budget.

    An observation of ``metric`` is *good* iff ``value <= target``. The
    burn rate over a window is ``bad_fraction / budget`` — burn 1.0
    consumes the budget exactly at the sustainable rate; burn N eats it
    N times too fast. An :class:`Alert` fires when the fast window burns
    at ``>= fast_burn`` *and* the slow window at ``>= slow_burn``
    (the fast window catches the onset, the slow window keeps one
    recovered blip from re-paging). Windows of 0 hold only the current
    instant: with budget and burns of 1.0 that is a plain threshold that
    pages on the first bad observation and re-arms on the first good one.
    """

    name: str
    #: Observation stream this objective judges (``queue_wait_s``,
    #: ``makespan_slowdown``, or any published metric name).
    metric: str
    #: Good iff observation <= target.
    target: float
    #: Allowed bad fraction of observations (the error budget).
    budget: float = 0.25
    #: Rolling windows, in seconds of the observing clock.
    fast_window: float = 300.0
    slow_window: float = 1200.0
    #: Burn-rate thresholds per window.
    fast_burn: float = 2.0
    slow_burn: float = 1.0
    severity: str = "page"
    description: str = ""

    def __post_init__(self) -> None:
        # Each bound is written so that NaN fails it.
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")
        if not 0.0 <= self.fast_window <= self.slow_window:
            raise ValueError(
                f"windows must satisfy 0 <= fast_window ({self.fast_window})"
                f" <= slow_window ({self.slow_window})")
        if not (self.fast_burn > 0 and self.slow_burn > 0):
            raise ValueError("burn thresholds must be > 0")


def default_objectives() -> tuple[SloObjective, ...]:
    """The default tenant objectives for the campaign service.

    * ``queue-wait`` — a tenant's jobs dispatch within 90 service seconds
      of enqueue (worker-contention QoS);
    * ``makespan-slowdown`` — a job's replay makespan stays under 3.5x
      its pure-simulation time (``n_steps * sim_step_time``); fault-driven
      retries, stalls and lease recoveries push it past the target.
    """
    return (
        SloObjective(name="queue-wait", metric="queue_wait_s", target=90.0),
        SloObjective(name="makespan-slowdown", metric="makespan_slowdown",
                     target=3.5),
    )


@dataclass(frozen=True)
class Alert:
    """One burn-rate alert (structured; published as a bus event)."""

    tenant: str
    objective: str
    metric: str
    severity: str
    t: float
    value: float
    target: float
    burn_fast: float
    burn_slow: float
    job_id: str | None = None
    message: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"tenant": self.tenant, "objective": self.objective,
                "metric": self.metric, "severity": self.severity,
                "t": self.t, "value": self.value, "target": self.target,
                "burn_fast": self.burn_fast, "burn_slow": self.burn_slow,
                "job_id": self.job_id, "message": self.message}


class _BurnWindows:
    """One (tenant, objective)'s two windows of ``(t, bad)``, with bad counts."""

    __slots__ = ("last_t", "fast", "fast_bad", "slow", "slow_bad")

    def __init__(self) -> None:
        self.last_t = float("-inf")
        self.fast, self.slow = deque(), deque()
        self.fast_bad = self.slow_bad = 0


class BurnRateMonitor:
    """Rolling per-tenant burn-rate evaluation over SLO objectives.

    Feed it observations with :meth:`observe` in time order per (tenant,
    objective), so each costs O(1) (an earlier one raises ``ValueError``);
    it evaluates both burn windows and fires a structured :class:`Alert`
    on the healthy->unhealthy transition only — a sustained violation is
    one alert, and the objective must recover (both windows below their
    thresholds) before it can page again. Alerts are appended to
    :attr:`alerts`, published on ``bus`` (kind ``alert``) when one is
    given, and mirrored as ``slo.burn`` tracer instants.
    """

    def __init__(self, objectives: tuple[SloObjective, ...] | None = None,
                 bus: TelemetryBus | None = None,
                 tracer: Any = None) -> None:
        self.objectives = tuple(objectives if objectives is not None
                                else default_objectives())
        self.bus = bus
        self.tracer = tracer
        self.alerts: list[Alert] = []
        self._windows: defaultdict[tuple[str, str], _BurnWindows] = (
            defaultdict(_BurnWindows))
        self._firing: dict[tuple[str, str], Alert] = {}
        self._by_metric: dict[str, list[SloObjective]] = {}
        names: set[str] = set()
        for obj in self.objectives:
            if obj.name in names:  # windows and latch are keyed by name
                raise ValueError(f"objective {obj.name!r} is named twice")
            names.add(obj.name)
            self._by_metric.setdefault(obj.metric, []).append(obj)

    # -- feeding -------------------------------------------------------------

    def observe(self, tenant: str, metric: str, t: float, value: float,
                job_id: str | None = None) -> list[Alert]:
        """Record one observation; returns any alerts it fired."""
        fired: list[Alert] = []
        for obj in self._by_metric.get(metric, ()):
            key = (tenant, obj.name)
            windows = self._windows[key]
            if not t >= windows.last_t:  # NaN too
                raise ValueError(f"{tenant}/{obj.name}: t={t} is before the "
                                 f"previous one at t={windows.last_t}")
            windows.last_t = t
            # Time only moves forward: the windows evict from their heads.
            bad = not value <= obj.target  # NaN is bad
            fast, slow = windows.fast, windows.slow
            fast.append((t, bad))
            slow.append((t, bad))
            windows.fast_bad += bad
            windows.slow_bad += bad
            cutoff = t - obj.fast_window
            while fast[0][0] < cutoff:
                windows.fast_bad -= fast.popleft()[1]
            cutoff = t - obj.slow_window
            while slow[0][0] < cutoff:
                windows.slow_bad -= slow.popleft()[1]
            burn_fast = (windows.fast_bad / len(fast)) / obj.budget
            burn_slow = (windows.slow_bad / len(slow)) / obj.budget
            unhealthy = (burn_fast >= obj.fast_burn
                         and burn_slow >= obj.slow_burn)
            if unhealthy and key not in self._firing:
                alert = Alert(
                    tenant=tenant, objective=obj.name, metric=metric,
                    severity=obj.severity, t=t, value=value,
                    target=obj.target, burn_fast=burn_fast,
                    burn_slow=burn_slow, job_id=job_id,
                    message=(f"{tenant}: {obj.name} burning at "
                             f"{burn_fast:.1f}x/{burn_slow:.1f}x budget "
                             f"({metric}={value:.3f} > {obj.target:.3f})"))
                self._firing[key] = alert
                self.alerts.append(alert)
                fired.append(alert)
                self._emit(alert)
            elif not unhealthy and key in self._firing:
                del self._firing[key]
        return fired

    def _emit(self, alert: Alert) -> None:
        bus = self.bus
        tracer = self.tracer
        if bus is None and tracer is not None:
            bus = getattr(tracer, "bus", None)
        if bus is not None:
            bus.publish(KIND_ALERT, alert.objective, t=alert.t, lane="slo",
                        tenant=alert.tenant, job_id=alert.job_id,
                        **{k: v for k, v in alert.to_dict().items()
                           if k not in ("tenant", "job_id", "objective", "t")})
        if tracer is not None and tracer.enabled:
            tracer.instant("slo.burn", lane="slo", tenant=alert.tenant,
                           job=alert.job_id, objective=alert.objective,
                           value=alert.value, target=alert.target,
                           burn_fast=alert.burn_fast)

    # -- querying ------------------------------------------------------------

    def active(self, tenant: str | None = None) -> list[Alert]:
        """Alerts currently firing (unhealthy and not yet recovered)."""
        alerts = [a for key, a in sorted(self._firing.items())]
        if tenant is not None:
            alerts = [a for a in alerts if a.tenant == tenant]
        return alerts


# ---------------------------------------------------------------------------
# The `repro serve --follow` frame renderer
# ---------------------------------------------------------------------------


def render_top(service: "CampaignService", bus: TelemetryBus | None = None,
               monitor: BurnRateMonitor | None = None) -> str:
    """One refreshing text frame of a draining campaign service.

    Reads live state only — the service engine is not advanced. Shows
    per-tenant queue depth / running / done / cache hit rate / active
    alerts, the worker pool and bus occupancy, shard balance when any
    job ran sharded, and a ticker of the most recent controller
    decisions and alerts.
    """
    from repro.service.queue import JobState

    monitor = monitor if monitor is not None else service.monitor
    tenants = sorted({j.tenant for j in service.jobs})
    lines: list[str] = []
    pool = service.pool
    lines.append(
        f"repro serve — t={service.engine.now:.3f}s service time, "
        f"{len(service.jobs)} job(s), workers "
        f"{pool.n_workers - pool.idle_count()}/{pool.n_workers} busy")
    if bus is not None:
        lines.append(
            f"bus: {bus.published} events published, {len(bus)} "
            f"retained, {bus.dropped_total} dropped "
            f"({len(bus.subscribers)} subscriber(s))")
        if bus.dropped_by_kind:
            by_kind = ", ".join(f"{kind}={n}" for kind, n in
                                sorted(bus.dropped_by_kind.items()))
            lines.append(f"bus drops by kind: {by_kind}")
    header = (f"{'tenant':<12} {'queued':>6} {'run':>4} {'done':>4} "
              f"{'fail':>4} {'held':>4} {'hit%':>5} {'maxwait':>8} "
              f"{'alerts':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    for tenant in tenants:
        jobs = [j for j in service.jobs if j.tenant == tenant]
        done = [j for j in jobs if j.state is JobState.DONE]
        running = sum(j.state is JobState.RUNNING for j in jobs)
        failed = sum(j.state is JobState.FAILED for j in jobs)
        held = sum(j.held for j in jobs)
        hits = sum(j.cache_hit for j in done)
        hit_pct = f"{100.0 * hits / len(done):.0f}" if done else "-"
        max_wait = max((j.queue_wait or 0.0 for j in done), default=0.0)
        active = len(monitor.active(tenant)) if monitor is not None else 0
        lines.append(
            f"{tenant:<12} {service.queue.pending_for(tenant):>6} "
            f"{running:>4} {len(done):>4} {failed:>4} {held:>4} "
            f"{hit_pct:>5} {max_wait:>8.2f} {active:>6}")
    balances = [j.result.shard_balance for j in service.jobs
                if j.result is not None and j.result.shard_balance is not None]
    if balances:
        from repro.staging.dataspaces import ShardBalanceReport
        bal = ShardBalanceReport.merge(balances)
        lines.append(f"shards: {bal.n_shards} shard(s), imbalance "
                     f"{bal.imbalance('tasks'):.2f}x tasks / "
                     f"{bal.imbalance('bytes'):.2f}x bytes")
    if monitor is not None and monitor.active():
        lines.append("active alerts:")
        for alert in monitor.active():
            lines.append(f"  [{alert.severity}] {alert.message}")
    if bus is not None:
        recent = bus.latest((KIND_DECISION, KIND_ALERT), 5)
        if recent:
            lines.append("ticker (decisions & alerts):")
            for e in recent:
                who = e.tenant or "-"
                lines.append(f"  #{e.seq} t={e.t:.2f} {e.kind}: {e.name} "
                             f"[{who}] {e.data.get('message', '') or ''}"
                             .rstrip())
    return "\n".join(lines)

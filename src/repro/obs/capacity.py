"""`repro.obs.capacity` — the byte-accurate capacity accounting plane.

Everything else in the observability stack reasons about staging memory
*analytically*: `ScaledExperiment.staging_memory_needed` is a formula,
and quotas, SLOs and the placement controller all consume it. This
module adds the measured side — a DES-time **resource ledger** that
records every staging-region allocate/free in the
:class:`~repro.transport.rdma.RdmaRegistry` and every granted-bytes wire
interval in :class:`~repro.transport.dart.DartTransport` as *attributed*
ledger entries (tenant/job via the tracer's ambient
:meth:`~repro.obs.tracer.Tracer.context`, shard via the attach site,
analysis/timestep via the region metadata).

On top of the ledger:

* exact per-tenant / per-shard / per-source resident-bytes accounting
  with high/low watermarks (integer bytes, so per-tenant totals sum to
  the global total with zero error);
* a **leak detector** — after a run drains, every consumer task has
  settled and every version gc has run, so any region still
  resident in a registry is a leak; :meth:`CapacityLedger.scan_leaks`
  reports each with its allocating attribution (source node, analysis,
  timestep, tenant/job);
* a **headroom model** — the measured peak resident bytes reconciled
  against the analytic ``staging_memory_needed`` bound (clean runs must
  measure at or under the bound; the gap is surfaced as
  ``capacity.headroom_bytes``);
* ``kind=capacity`` events on the :class:`~repro.obs.live.TelemetryBus`
  — stamped from the DES clock only, so same-seed streams are
  byte-identical;
* per-tenant memory/bandwidth :class:`~repro.obs.live.SloObjective`
  factories for the :class:`~repro.obs.live.BurnRateMonitor`.

Determinism and overhead contract: the ledger only exists when a run
asks for one (or tracing is on); the registry/transport hot paths pay a
single ``ledger is None`` check when it does not, keeping the <5%
disabled-tracer overhead guard intact. All byte quantities are integers
and all timestamps are DES seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.events import UNATTRIBUTED, LedgerEntry, TransferEntry
from repro.obs.live import KIND_CAPACITY, SloObjective
from repro.obs.tracer import get_tracer
from repro.util.tables import TextTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.dart import DartTransport
    from repro.transport.rdma import RdmaRegion, RdmaRegistry

__all__ = [
    "CapacityLedger",
    "CapacityReport",
    "LedgerEntry",
    "TransferEntry",
    "capacity_objectives",
    "run_capacity_scenario",
]

#: Source-node name the synthetic retention fault registers under (the
#: ``--inject-leak`` leg of the capacity smoke gate).
LEAK_INJECTOR_NODE = "fault-injector"


@dataclass
class CapacityReport:
    """Everything one ledger measured, as plain JSON-safe data.

    ``by_tenant`` / ``by_shard`` / ``by_source`` break the same integer
    byte totals down by attribution scope, so each breakdown's
    ``registered_bytes`` (and ``released_bytes``, ``nic_bytes``) sums
    exactly to the corresponding global total.
    """

    analytic_bound_bytes: int | None
    peak_resident_bytes: int
    peak_t: float | None
    final_resident_bytes: int
    registered_bytes_total: int
    released_bytes_total: int
    n_registers: int
    n_releases: int
    nic_peak_bytes: int
    nic_peak_t: float | None
    nic_bytes_total: int
    nic_busy_seconds: float
    n_transfers: int
    by_tenant: dict[str, dict[str, Any]] = field(default_factory=dict)
    by_shard: dict[str, dict[str, Any]] = field(default_factory=dict)
    by_source: dict[str, dict[str, Any]] = field(default_factory=dict)
    by_analysis: dict[str, dict[str, Any]] = field(default_factory=dict)
    leaks: list[dict[str, Any]] = field(default_factory=list)
    resident_series: list[tuple[float, int]] | None = None
    #: 1 when this run measured past its analytic bound, else 0 (summed
    #: by :meth:`merge` so a campaign view counts offending runs).
    headroom_violations: int = 0

    @property
    def headroom_bytes(self) -> int | None:
        if self.analytic_bound_bytes is None:
            return None
        return self.analytic_bound_bytes - self.peak_resident_bytes

    def to_dict(self, series_cap: int | None = 240) -> dict[str, Any]:
        series = self.resident_series
        if series is not None and series_cap is not None \
                and len(series) > series_cap:
            stride = len(series) / series_cap
            series = [series[int(i * stride)] for i in range(series_cap)]
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "headroom_bytes": self.headroom_bytes,
                "resident_series": series}

    def watermark_table(self) -> str:
        """Aligned per-scope watermark table (the `repro check capacity`
        view)."""
        t = TextTable(["scope", "peak bytes", "at t", "registered",
                       "released", "resident", "nic bytes"],
                      title="capacity watermarks")
        t.add_row(["global", self.peak_resident_bytes,
                   f"{self.peak_t:.4f}" if self.peak_t is not None else "-",
                   self.registered_bytes_total, self.released_bytes_total,
                   self.final_resident_bytes, self.nic_bytes_total])
        for label, scopes in (("tenant", self.by_tenant),
                              ("shard", self.by_shard),
                              ("source", self.by_source)):
            for name, acct in sorted(scopes.items()):
                peak_t = acct.get("peak_t")
                t.add_row([f"{label}:{name}", acct["peak_bytes"],
                           f"{peak_t:.4f}" if peak_t is not None else "-",
                           acct["registered_bytes"], acct["released_bytes"],
                           acct["resident_bytes"], acct["nic_bytes"]])
        return t.render()

    def leak_table(self) -> str:
        if not self.leaks:
            return "(no leaks)"
        t = TextTable(["region", "bytes", "shard", "source", "analysis",
                       "step", "tenant", "job"], title="leaked regions")
        for leak in self.leaks:
            t.add_row([leak["region_id"], leak["nbytes"], leak["shard"],
                       leak["source"], leak["analysis"] or "-",
                       leak["timestep"] if leak["timestep"] is not None
                       else "-", leak["tenant"], leak["job"]])
        return t.render()

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CapacityReport":
        """Rebuild a report from :meth:`to_dict` output (the schedule
        cache round-trip; pass ``series_cap=None`` when serializing for
        an exact rebuild)."""
        known = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        if known.get("resident_series") is not None:
            known["resident_series"] = [(p[0], p[1])
                                        for p in known["resident_series"]]
        return cls(**known)

    @classmethod
    def merge(cls, reports: list["CapacityReport"]) -> "CapacityReport":
        """Aggregate several runs' reports into one campaign view.

        Totals and breakdowns sum; peaks take the per-run maximum (runs
        are sequential on the service clock, never co-resident); the
        per-run resident series and analytic bounds do not compose, so
        the merged report carries neither — headroom accounting survives
        as the summed violation count.
        """
        if not reports:
            raise ValueError("cannot merge zero capacity reports")

        def merge_scopes(key: str) -> dict[str, dict[str, Any]]:
            out: dict[str, dict[str, Any]] = {}
            for rep in reports:
                for name, acct in getattr(rep, key).items():
                    cur = out.setdefault(name, {
                        "resident_bytes": 0, "registered_bytes": 0,
                        "released_bytes": 0, "nic_bytes": 0,
                        "peak_bytes": 0, "peak_t": None})
                    for f in ("resident_bytes", "registered_bytes",
                              "released_bytes", "nic_bytes"):
                        cur[f] += acct[f]
                    if acct["peak_bytes"] > cur["peak_bytes"]:
                        cur["peak_bytes"] = acct["peak_bytes"]
                        cur["peak_t"] = acct.get("peak_t")
            return out

        peak = max(reports, key=lambda r: r.peak_resident_bytes)
        nic_peak = max(reports, key=lambda r: r.nic_peak_bytes)
        return cls(
            analytic_bound_bytes=None,
            peak_resident_bytes=peak.peak_resident_bytes,
            peak_t=peak.peak_t,
            nic_peak_bytes=nic_peak.nic_peak_bytes,
            nic_peak_t=nic_peak.nic_peak_t,
            leaks=[leak for r in reports for leak in r.leaks],
            resident_series=None,
            **{f: sum(getattr(r, f) for r in reports)
               for f in ("final_resident_bytes", "registered_bytes_total",
                         "released_bytes_total", "n_registers", "n_releases",
                         "nic_bytes_total", "nic_busy_seconds", "n_transfers",
                         "headroom_violations")},
            **{key: merge_scopes(key) for key in
               ("by_tenant", "by_shard", "by_source", "by_analysis")},
        )


class CapacityLedger:
    """DES-time ledger of staging-memory and NIC-bandwidth consumption.

    Attach it to the transports of a run (:meth:`attach_transport`) and
    bind the run's DES clock (:meth:`bind_clock`); the registry and
    transport hot paths call :meth:`on_register` / :meth:`on_release` /
    :meth:`on_transfer` behind a single ``ledger is not None`` check.
    Each call appends one attributed delta
    (:class:`~repro.obs.events.LedgerEntry` /
    :class:`~repro.obs.events.TransferEntry`) to the ledger's own delta
    list and, under a recording tracer, to the run's event log, and keeps
    only the global resident bytes and their peak live. After the run drains,
    :meth:`finalize` scans the registries for leaked regions and folds
    the deltas into the :class:`CapacityReport`: totals, per-scope
    accounts with watermarks, the resident series, NIC occupancy.
    """

    def __init__(self) -> None:
        self._clock: Callable[[], float] = lambda: 0.0
        self.analytic_bound_bytes: int | None = None
        self._tracer = get_tracer()
        #: The run's event log, which every delta joins (None untraced).
        self._log: list[Any] | None = (self._tracer.log
                                       if self._tracer.enabled else None)
        #: This ledger's deltas in emit order; the folds read only these.
        self._deltas: list[LedgerEntry | TransferEntry] = []
        self.resident_bytes = 0
        self._peak: int | None = None
        self._peak_t: float | None = None
        #: (shard, region_id) -> the register delta, so a release (or leak
        #: scan) outside the allocating context still credits the right
        #: tenant/shard. Keyed by shard too: region ids are minted per
        #: registry, so distinct shards can reuse one id.
        self._attribution: dict[tuple[str, str], LedgerEntry] = {}
        self._registries: list[tuple[str, "RdmaRegistry"]] = []
        self._pending_leak_bytes: int | None = None
        self._report: CapacityReport | None = None

    # -- wiring ---------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    @property
    def peak_resident_bytes(self) -> int:
        """Running high-water mark of global resident staging bytes."""
        return self._peak if self._peak is not None else 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use the run's DES clock (``lambda: engine.now``)."""
        self._clock = clock

    def attach_transport(self, transport: "DartTransport",
                         shard: str = "shard0") -> None:
        """Hook one transport (and its registry) into the ledger."""
        transport.ledger = self
        transport.ledger_shard = shard
        self.attach_registry(transport.registry, shard=shard)

    def attach_registry(self, registry: "RdmaRegistry",
                        shard: str = "shard0") -> None:
        registry.ledger = self
        registry.ledger_shard = shard
        self._registries.append((shard, registry))
        if self._pending_leak_bytes is not None:
            # Seeded retention fault: a real region registered through
            # the real path, never released — the leak scan must find it.
            nbytes = self._pending_leak_bytes
            self._pending_leak_bytes = None
            registry.register(LEAK_INJECTOR_NODE, payload=None,
                              nbytes=nbytes,
                              meta={"analysis": "injected-leak",
                                    "timestep": -1})

    def inject_leak(self, nbytes: int = 1 << 20) -> None:
        """Arm a synthetic retention fault for the next registry attach
        (what ``repro check capacity-leak`` must find)."""
        if nbytes <= 0:
            raise ValueError(f"leak bytes must be > 0, got {nbytes}")
        self._pending_leak_bytes = int(nbytes)

    # -- ledger transitions ---------------------------------------------------

    def _record(self, delta: LedgerEntry | TransferEntry) -> None:
        """Append one delta to this ledger's list and the run's log."""
        self._deltas.append(delta)
        if self._log is not None:
            self._log.append(delta)

    def on_register(self, region: "RdmaRegion", shard: str) -> None:
        t = self._clock()
        ctx = self._tracer.ctx
        meta = region.meta
        nbytes = int(region.nbytes)
        resident = self.resident_bytes = self.resident_bytes + nbytes
        if self._peak is None or resident > self._peak:
            self._peak = resident
            self._peak_t = t
        entry = LedgerEntry(
            t, "register", region.region_id, nbytes, resident, shard,
            region.source_node, ctx.get("tenant") or UNATTRIBUTED,
            ctx.get("job") or UNATTRIBUTED, meta.get("analysis"),
            meta.get("timestep"))
        self._attribution[(shard, region.region_id)] = entry
        self._record(entry)

    def on_release(self, region: "RdmaRegion", shard: str) -> None:
        reg = self._attribution.pop((shard, region.region_id), None)
        if reg is None:
            return  # registered before the ledger attached: never booked
        resident = self.resident_bytes = self.resident_bytes - reg.nbytes
        self._record(LedgerEntry(
            self._clock(), "release", reg.region_id, reg.nbytes,
            resident, reg.shard, reg.source, reg.tenant, reg.job,
            reg.analysis, reg.timestep))

    def on_transfer(self, t_start: float, t_end: float, nbytes: int,
                    protocol: str, src: str, dest: str, shard: str,
                    analysis: str | None = None) -> None:
        """Record one granted-bytes NIC interval (the wire time of a
        pull, excluding NIC-channel queueing)."""
        ctx = self._tracer.ctx
        self._record(TransferEntry(
            t_start, t_end, int(nbytes), protocol, src, dest, shard,
            ctx.get("tenant") or UNATTRIBUTED, ctx.get("job") or UNATTRIBUTED,
            analysis))

    # -- folds over the ledger's deltas ---------------------------------------

    @property
    def entries(self) -> list[LedgerEntry]:
        """Every staging-memory transition (register/release/leak)."""
        return [d for d in self._deltas if type(d) is LedgerEntry]

    @property
    def transfers(self) -> list[TransferEntry]:
        """Every granted-bytes NIC interval."""
        return [d for d in self._deltas if type(d) is TransferEntry]

    # -- leak detection & the report -----------------------------------------

    def scan_leaks(self) -> list[dict[str, Any]]:
        """Regions still resident across every attached registry.

        Call after the run drains: every consumer task has settled and
        gc has run, so whatever is left was never freed."""
        leaks: list[dict[str, Any]] = []
        for shard, registry in self._registries:
            for region_id in sorted(registry.region_ids()):
                region = registry.lookup(region_id)
                reg = self._attribution.get((shard, region_id))
                leaks.append({
                    "region_id": region_id,
                    "nbytes": int(region.nbytes),
                    "shard": reg.shard if reg is not None else shard,
                    "source": region.source_node,
                    "analysis": region.meta.get("analysis"),
                    "timestep": region.meta.get("timestep"),
                    "tenant": reg.tenant if reg is not None
                    else UNATTRIBUTED,
                    "job": reg.job if reg is not None else UNATTRIBUTED,
                    "pull_count": region.pull_count,
                })
        return leaks

    def finalize(self) -> CapacityReport:
        """Scan for leaks and fold the deltas into the report
        (idempotent)."""
        if self._report is not None:
            return self._report
        leaks = self.scan_leaks()
        t = self.now()
        for leak in leaks:
            self._record(LedgerEntry(
                t, "leak", leak["region_id"], leak["nbytes"],
                self.resident_bytes, leak["shard"], leak["source"],
                leak["tenant"], leak["job"], leak["analysis"],
                leak["timestep"]))
        nic_peak, nic_peak_t, nic_busy = _nic_occupancy(self.transfers)
        peak = self.peak_resident_bytes
        bound = self.analytic_bound_bytes
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.gauge("capacity.peak_resident_bytes").set(peak)
            if bound is not None:
                metrics.gauge("capacity.headroom_bytes").set(bound - peak)
            metrics.gauge("capacity.nic_peak_bytes").set(nic_peak)
            metrics.gauge("capacity.leaked_regions").set(len(leaks))
        self._report = CapacityReport(
            analytic_bound_bytes=bound,
            peak_resident_bytes=peak,
            peak_t=self._peak_t,
            final_resident_bytes=self.resident_bytes,
            nic_peak_bytes=nic_peak,
            nic_peak_t=nic_peak_t,
            nic_busy_seconds=nic_busy,
            leaks=leaks,
            headroom_violations=int(bound is not None and peak > bound),
            **_fold_deltas(self._deltas),
        )
        return self._report


def _fold_deltas(deltas: list[LedgerEntry | TransferEntry]) -> dict[str, Any]:
    """One pass over a ledger's deltas: the report's totals, resident
    series and per-scope accounts (tenant / shard / source / analysis).

    A scope account is integer resident-bytes accounting with the
    watermark a live gauge would have kept: ``peak_bytes`` is the highest
    resident value right after a register or release and ``peak_t`` the
    first time it was reached.
    """
    # Per scope kind: name -> [resident, registered, released, nic,
    # peak, peak_t].
    accounts: tuple[dict[str, list[Any]], ...] = ({}, {}, {}, {})
    series: list[tuple[float, int]] = []
    registered = released = n_registers = n_releases = 0
    nic_bytes = n_transfers = 0
    for d in deltas:
        n = d.nbytes
        if type(d) is TransferEntry:  # a transfer moves no watermark
            n_transfers += 1
            nic_bytes += n
            for scope, name in zip(accounts, (d.tenant, d.shard, d.src,
                                              d.analysis or UNATTRIBUTED)):
                acct = scope.get(name)
                if acct is None:
                    acct = scope[name] = [0, 0, 0, 0, None, None]
                acct[3] += n
            continue
        op = d.op
        if op == "leak":
            continue
        t = d.t
        series.append((t, d.resident))
        if op == "register":
            n_registers += 1
            registered += n
            booked, move = 1, n
        else:
            n_releases += 1
            released += n
            booked, move = 2, -n
        for scope, name in zip(accounts, (d.tenant, d.shard, d.source,
                                          d.analysis or UNATTRIBUTED)):
            acct = scope.get(name)
            if acct is None:
                acct = scope[name] = [0, 0, 0, 0, None, None]
            resident = acct[0] = acct[0] + move
            acct[booked] += n
            if acct[4] is None or resident > acct[4]:
                acct[4] = resident
                acct[5] = t
    fold: dict[str, Any] = {
        "by_" + kind: {name: {"resident_bytes": a[0],
                              "registered_bytes": a[1],
                              "released_bytes": a[2], "nic_bytes": a[3],
                              "peak_bytes": a[4] if a[4] is not None else 0,
                              "peak_t": a[5]}
                       for name, a in scope.items()}
        for kind, scope in zip(("tenant", "shard", "source", "analysis"),
                               accounts)}
    fold.update(resident_series=series, registered_bytes_total=registered,
                released_bytes_total=released, n_registers=n_registers,
                n_releases=n_releases, nic_bytes_total=nic_bytes,
                n_transfers=n_transfers)
    return fold


def _nic_occupancy(transfers: list[TransferEntry]
                   ) -> tuple[int, float | None, float]:
    """Peak concurrent granted bytes, when it was reached, and total
    seconds any transfer occupied the wire (interval sweep)."""
    if not transfers:
        return 0, None, 0.0
    events: list[tuple[float, int, int]] = []
    for tr in transfers:
        # At equal times, releases (order 0) precede grants (order 1)
        # so back-to-back transfers do not count as concurrent.
        events.append((tr.t_start, 1, tr.nbytes))
        events.append((tr.t_end, 0, -tr.nbytes))
    events.sort(key=itemgetter(0, 1))
    active = 0
    peak = 0
    peak_t: float | None = None
    busy = 0.0
    busy_since: float | None = None
    for t, _order, delta in events:
        prev = active
        active += delta
        if prev == 0 and active > 0:
            busy_since = t
        elif prev > 0 and active == 0 and busy_since is not None:
            busy += t - busy_since
            busy_since = None
        if active > peak:
            peak = active
            peak_t = t
    return peak, peak_t, busy


# ---------------------------------------------------------------------------
# SLO objectives
# ---------------------------------------------------------------------------


def capacity_objectives() -> tuple[SloObjective, ...]:
    """Per-tenant capacity objectives for the burn-rate monitor.

    * ``staging-memory`` — a job's ledger-measured peak resident staging
      bytes stay within its analytic ``staging_memory_needed`` bound (a
      fraction > 1 means the model under-provisioned);
    * ``nic-bandwidth`` — the job's peak concurrent granted NIC bytes
      stay within the same bound (the in-flight data a pull storm pins
      on the wire at once).
    """
    return (
        SloObjective(name="staging-memory", metric="staging_peak_frac",
                     target=1.0),
        SloObjective(name="nic-bandwidth", metric="nic_peak_frac",
                     target=1.0, severity="ticket"),
    )


# ---------------------------------------------------------------------------
# The `repro check capacity` scenario
# ---------------------------------------------------------------------------


def headroom_table(reports: dict[str, CapacityReport]) -> str:
    """Measured peak against the analytic bound, one row per tenant run."""
    t = TextTable(["tenant run", "analytic bound", "measured peak",
                   "headroom", "nic peak", "leaks"],
                  title="measured vs analytic staging memory")
    for tenant, rep in reports.items():
        t.add_row([tenant, rep.analytic_bound_bytes, rep.peak_resident_bytes,
                   rep.headroom_bytes if rep.headroom_bytes is not None
                   else "-", rep.nic_peak_bytes, len(rep.leaks)])
    return t.render()


def run_capacity_scenario(tenants: tuple[str, ...] = ("alpha", "beta"),
                          inject_leak: bool = False) -> dict[str, Any]:
    """Replay one Fig. 5-shaped campaign per tenant with the ledger on.

    Tenant ``i`` replays 6 + ``i`` steps on 4 buckets under its own
    ambient tracer context (so every ledger entry is tenant-attributed),
    optionally arming a seeded 1 MiB retention fault on the final
    tenant's run, and the per-run reports
    merge into the campaign view. Returns the per-tenant reports, the
    merged report, and the ``kind=capacity`` event stream (one canonical
    JSONL line per event — byte-identical across same-seed runs).
    """
    from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment
    from repro.obs.live import TelemetryBus, event_to_json
    from repro.obs.tracer import get_tracer, tracing

    with tracing() as tracer:
        bus = tracer.attach_bus(TelemetryBus())
        sub = bus.subscribe("capacity-scenario")
        reports: dict[str, CapacityReport] = {}
        makespans: dict[str, float] = {}
        for i, tenant in enumerate(tenants):
            # The paper's 4896-core allocation, as `repro perf` replays.
            exp = ScaledExperiment(ExperimentConfig.paper_4896())
            ledger = CapacityLedger()
            if inject_leak and i == len(tenants) - 1:
                ledger.inject_leak()
            with get_tracer().context(tenant=tenant, job=f"{tenant}-cap"):
                sched = exp.run_schedule(
                    ReplayPlan(n_steps=6 + i, n_buckets=4), capacity=ledger)
            reports[tenant] = sched.capacity
            makespans[tenant] = sched.makespan
        merged = CapacityReport.merge(list(reports.values()))
        events = [event_to_json(e) for e in sub.poll()
                  if e.kind == KIND_CAPACITY]
        tracer.attach_bus(None)
    return {"tenants": reports, "merged": merged, "events": events,
            "makespans": makespans, "inject_leak": inject_leak}

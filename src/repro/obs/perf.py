"""Cross-run performance records and the regression gate.

The paper's argument is a set of *times and sizes per timestep* (Figs.
5–6, Tables I–II); this module gives the reproduction a memory of those
figures across runs. Three pieces:

* :class:`RunRecord` / :class:`RunStore` — one canonical, append-friendly
  schema for "what one run measured": a flat ``metrics`` map (stage
  totals, critical-path busy/wait, scheduler figures, fault-recovery
  stats, wall timings), plus provenance (git SHA, the modeled
  :class:`~repro.machine.specs.MachineSpec` fingerprint) and a ``meta``
  blob carrying dashboard payloads (probe time series, SLO alerts, the
  Fig.-6 stage breakdown). The same schema is written by the benchmark
  harness (``benchmarks/conftest.py``), the resilience experiment, and
  the ``python -m repro perf`` CLI.
* :class:`Baseline` + :func:`compare_record` — the regression detector:
  per-metric rolling median over the last *N* records with a MAD-based
  noise band, per-metric tolerance/direction overrides via glob-matched
  :class:`MetricPolicy` rules, and a table of per-metric verdicts
  (``ok`` / ``improved`` / ``regressed`` / ``new`` / ``missing`` /
  ``info``). CI gates on :attr:`RegressionReport.ok`.
* :func:`collect_run_record` — the canonical probe workload: a traced
  DES replay of the staging schedule (with live probes and SLO rules)
  plus a seeded fault-recovery scenario, reduced to the metric map.

Simulated-time metrics are deterministic for a given tree, so on an
unchanged tree every gated metric compares exactly equal to the committed
baseline; wall-clock metrics carry a ``wall.`` prefix and are recorded
but never gated (they vary per host).
"""

from __future__ import annotations

import fnmatch
import functools
import json
import math
import os
import statistics
import subprocess
import time
import uuid
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.machine.specs import machine_fingerprint
from repro.util.tables import TextTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import ReplayPlan
    from repro.costmodel.models import CostModel

__all__ = [
    "RunRecord",
    "RunStore",
    "MetricPolicy",
    "Baseline",
    "MetricVerdict",
    "RegressionReport",
    "DEFAULT_POLICIES",
    "machine_fingerprint",
    "git_sha",
    "collect_run_record",
    "compare_record",
]

SCHEMA_VERSION = 1


def git_sha() -> str | None:
    """Current git HEAD SHA, or ``None`` outside a repository (read once
    per process and working directory, not once per record)."""
    return _git_sha(os.getcwd())


@functools.cache
def _git_sha(cwd: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class RunRecord:
    """One run's canonical measurements plus provenance."""

    run_id: str
    created_at: str
    source: str
    metrics: dict[str, float]
    git_sha: str | None = None
    machine: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @classmethod
    def new(cls, source: str, metrics: dict[str, float],
            machine: dict[str, Any] | None = None,
            meta: dict[str, Any] | None = None) -> "RunRecord":
        return cls(
            run_id=uuid.uuid4().hex[:12],
            created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            source=source,
            metrics={k: float(v) for k, v in metrics.items()},
            git_sha=git_sha(),
            machine=machine or {},
            meta=meta or {},
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "source": self.source,
            "git_sha": self.git_sha,
            "machine": self.machine,
            "metrics": self.metrics,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(data.get("run_id", "unknown")),
            created_at=str(data.get("created_at", "")),
            source=str(data.get("source", "unknown")),
            metrics={str(k): float(v)
                     for k, v in (data.get("metrics") or {}).items()},
            git_sha=data.get("git_sha"),
            machine=dict(data.get("machine") or {}),
            meta=dict(data.get("meta") or {}),
            schema=int(data.get("schema", SCHEMA_VERSION)),
        )


class RunStore:
    """Append-friendly store of run records: one JSONL file per store.

    A store is a directory holding ``runs.jsonl``; appending is a single
    ``O_APPEND`` write, so concurrent benchmark sessions never clobber
    each other. The committed baseline under
    ``benchmarks/results/baseline/`` is just a store directory checked
    into git.
    """

    FILENAME = "runs.jsonl"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Torn/foreign lines the last :meth:`records` read stepped over.
        self.skipped = 0

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    def append(self, record: RunRecord) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return self.path

    def records(self) -> list[RunRecord]:
        """All records, oldest first (file order; ties keep file order)."""
        self.skipped = 0
        if not self.path.exists():
            return []
        out: list[RunRecord] = []
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(RunRecord.from_dict(json.loads(line)))
                except (json.JSONDecodeError, AttributeError, TypeError,
                        ValueError):
                    # A torn/foreign line (AttributeError: valid JSON that
                    # is not an object) never poisons the store.
                    self.skipped += 1
        return out

    def __len__(self) -> int:
        return len(self.records())


# -- regression detection ----------------------------------------------------


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric (glob pattern) is judged against the baseline.

    ``direction`` is the *good* direction: ``"lower"`` (times, queue
    waits — higher is a regression), ``"higher"`` (throughputs), or
    ``"both"`` (invariants like task counts — any drift is a regression).
    ``gate=False`` records the comparison informationally but never fails
    the gate (wall-clock figures across heterogeneous hosts).
    """

    pattern: str
    tolerance: float = 0.05
    direction: str = "lower"
    gate: bool = True
    #: MAD multiplier for the noise band (3 x scaled MAD ~ 3 sigma).
    mad_k: float = 3.0

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher", "both"):
            raise ValueError(f"direction must be lower/higher/both, "
                             f"got {self.direction!r}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")

    def matches(self, metric: str) -> bool:
        return fnmatch.fnmatchcase(metric, self.pattern)


#: First match wins; the trailing ``*`` rule is the default.
DEFAULT_POLICIES: tuple[MetricPolicy, ...] = (
    MetricPolicy("wall.*", gate=False),
    MetricPolicy("count.*", tolerance=0.0, direction="both"),
    MetricPolicy("probe.samples", tolerance=0.0, direction="both"),
    MetricPolicy("slo.alerts", tolerance=0.0, direction="lower"),
    MetricPolicy("faults.*", tolerance=0.02, direction="lower"),
    MetricPolicy("controller.speedup", tolerance=0.02, direction="higher"),
    MetricPolicy("controller.decisions", tolerance=0.0, direction="both"),
    MetricPolicy("controller.pool_final", tolerance=0.0, direction="both"),
    # Ledger byte figures are deterministic invariants; leaks and
    # headroom violations must stay at zero, headroom may only shrink
    # deliberately.
    MetricPolicy("capacity.leaked_regions", tolerance=0.0,
                 direction="lower"),
    MetricPolicy("capacity.headroom_violations", tolerance=0.0,
                 direction="lower"),
    MetricPolicy("capacity.headroom_bytes", tolerance=0.0,
                 direction="higher"),
    MetricPolicy("capacity.*", tolerance=0.0, direction="both"),
    MetricPolicy("*", tolerance=0.02, direction="lower"),
)

_MAD_SCALE = 1.4826  # scaled MAD estimates sigma under normal noise


@dataclass
class Baseline:
    """Per-metric rolling statistics over the last *N* baseline records."""

    stats: dict[str, tuple[float, float, int]]  # metric -> (median, MAD, n)
    n_records: int = 0
    window: int = 0

    @classmethod
    def from_records(cls, records: list[RunRecord],
                     window: int = 5) -> "Baseline":
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        recent = records[-window:]
        by_metric: dict[str, list[float]] = {}
        for rec in recent:
            for name, value in rec.metrics.items():
                by_metric.setdefault(name, []).append(value)
        stats: dict[str, tuple[float, float, int]] = {}
        for name, values in by_metric.items():
            med = statistics.median(values)
            mad = statistics.median([abs(v - med) for v in values])
            stats[name] = (med, mad, len(values))
        return cls(stats=stats, n_records=len(recent), window=window)

    def __contains__(self, metric: str) -> bool:
        return metric in self.stats


@dataclass
class MetricVerdict:
    """One metric's comparison against the baseline."""

    metric: str
    status: str  # ok | improved | regressed | new | missing | info
    value: float | None
    median: float | None
    band: float = 0.0
    gated: bool = True

    @property
    def delta(self) -> float | None:
        if self.value is None or self.median is None:
            return None
        return self.value - self.median

    @property
    def rel_delta(self) -> float | None:
        d = self.delta
        if d is None:
            return None
        if self.median == 0.0:
            return float("inf") if d else 0.0
        return d / abs(self.median)

    @property
    def failed(self) -> bool:
        return self.gated and self.status in ("regressed", "missing")


@dataclass
class RegressionReport:
    """Every metric's verdict for one record-vs-baseline comparison."""

    verdicts: list[MetricVerdict]
    n_baseline_records: int = 0

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.verdicts)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.verdicts:
            out[v.status] = out.get(v.status, 0) + 1
        return out

    def table(self) -> str:
        t = TextTable(["metric", "baseline", "value", "delta", "band",
                       "verdict"],
                      title=f"regression gate vs baseline "
                            f"({self.n_baseline_records} records)")
        order = {"regressed": 0, "missing": 1, "improved": 2, "new": 3,
                 "ok": 4, "info": 5}
        for v in sorted(self.verdicts,
                        key=lambda v: (order.get(v.status, 9), v.metric)):
            rel = v.rel_delta
            delta = ("—" if rel is None
                     else f"{100 * rel:+.2f}%" if abs(rel) != float("inf")
                     else f"{v.delta:+.4g}")
            t.add_row([
                v.metric,
                "—" if v.median is None else f"{v.median:.6g}",
                "—" if v.value is None else f"{v.value:.6g}",
                delta,
                f"{v.band:.3g}",
                v.status.upper() if v.failed else v.status,
            ])
        return t.render()


def _policy_for(metric: str, policies: tuple[MetricPolicy, ...]
                ) -> MetricPolicy:
    for pol in policies:
        if pol.matches(metric):
            return pol
    return MetricPolicy("*")


def compare_record(record: RunRecord, baseline: Baseline,
                   policies: tuple[MetricPolicy, ...] = DEFAULT_POLICIES,
                   ) -> RegressionReport:
    """Judge every metric of ``record`` against the baseline statistics.

    The noise band per metric is ``max(tol * |median|, mad_k * 1.4826 *
    MAD)``: the relative tolerance dominates for deterministic metrics
    (MAD = 0), the MAD term widens the band where the baseline itself is
    noisy. Values inside the band are ``ok``; outside, the policy's
    direction decides ``improved`` vs ``regressed``.
    """
    verdicts: list[MetricVerdict] = []
    for name, value in sorted(record.metrics.items()):
        pol = _policy_for(name, policies)
        if name not in baseline:
            verdicts.append(MetricVerdict(name, "new", value, None,
                                          gated=False))
            continue
        med, mad, _n = baseline.stats[name]
        band = max(pol.tolerance * abs(med), pol.mad_k * _MAD_SCALE * mad)
        delta = value - med
        if not pol.gate:
            status = "info"
        elif abs(delta) <= band:
            status = "ok"
        elif pol.direction == "both":
            status = "regressed"
        elif pol.direction == "lower":
            status = "regressed" if delta > 0 else "improved"
        else:  # higher is better
            status = "regressed" if delta < 0 else "improved"
        verdicts.append(MetricVerdict(name, status, value, med, band=band,
                                      gated=pol.gate))
    for name in sorted(set(baseline.stats) - set(record.metrics)):
        pol = _policy_for(name, policies)
        med, _mad, _n = baseline.stats[name]
        verdicts.append(MetricVerdict(name, "missing", None, med,
                                      gated=pol.gate))
    return RegressionReport(verdicts=verdicts,
                            n_baseline_records=baseline.n_records)


# -- the canonical probe workload --------------------------------------------


def _downsample(series: list[tuple[float, float]], cap: int = 120
                ) -> list[list[float]]:
    """Thin a time series to <= cap points (always keeping the last)."""
    if len(series) <= cap:
        return [[t, v] for t, v in series]
    stride = (len(series) + cap - 1) // cap
    picked = series[::stride]
    if picked[-1] != series[-1]:
        picked.append(series[-1])
    return [[t, v] for t, v in picked]


def perturbed_cost_model(perturb: dict[str, float] | None) -> CostModel:
    """The Jaguar cost model, each named operation's rate times its factor
    (``KeyError``: no such operation; ``ValueError``: not a factor > 0)."""
    from repro.costmodel.jaguar import jaguar_cost_model

    cost = jaguar_cost_model()
    for op, factor in (perturb or {}).items():
        rate = cost.rate(op)
        if not 0 < factor < math.inf:  # refuses NaN too
            raise ValueError(f"factor for {op!r} must be a finite number "
                             f"> 0, got {factor}")
        cost = cost.with_rate(op, rate * factor)
    return cost


def collect_run_record(plan: ReplayPlan | None = None,
                       source: str = "cli",
                       perturb: dict[str, float] | None = None) -> RunRecord:
    """Run the canonical observability workload and record it.

    Phases: (1) a traced DES replay of ``plan`` (default: 10 steps on 8
    buckets) with live probes and SLO rules attached; (2) the seeded
    crash-recovery scenario from :mod:`repro.faults`; (3) a traced
    laptop-scale functional pipeline run that exercises the analysis
    kernels and yields the per-kernel wall timings
    (``wall.kernel.<name>_s``) and the ``meta["top_kernels"]`` ranking —
    recorded under whichever body the kernel switch selects, named in
    ``meta["backend"]``. ``plan.fault_seed`` seeds the fault phases.
    ``perturb`` maps cost-model operation names to rate multipliers —
    the knob tests and humans use to demonstrate that an artificially
    slowed stage trips the gate.
    """
    from repro.backend import get_backend
    from repro.core import ExperimentConfig, ReplayPlan, ScaledExperiment
    from repro.faults import FaultConfig, run_resilience_experiment
    from repro.obs.analysis import critical_path
    from repro.core.framework import traced_functional_run
    from repro.obs.blame import top_kernels
    from repro.obs.probes import insitu_share
    from repro.obs.tracer import tracing

    cost = perturbed_cost_model(perturb)
    wall_start = time.perf_counter()
    plan = plan or ReplayPlan(n_steps=10, n_buckets=8)
    exp = ScaledExperiment(ExperimentConfig.paper_4896(), cost_model=cost)
    sim_dt = exp.simulation_step_time()
    probe_interval = max(sim_dt * 0.25, 1e-9)
    with tracing() as tracer:
        sched = exp.run_schedule(plan, probe_interval=probe_interval)
    totals = tracer.trace.stage_totals()
    cp = critical_path(tracer.trace)
    snap = tracer.metrics.snapshot()
    counters = snap["counters"]
    sampler = sched.probes

    metrics: dict[str, float] = {
        "trace.simulation_s": totals.get("simulation", 0.0),
        "trace.insitu_s": totals.get("insitu", 0.0),
        "trace.movement_intransit_s": (totals.get("movement", 0.0)
                                       + totals.get("intransit", 0.0)),
        "trace.insitu_share": insitu_share(totals),
        "sched.makespan_s": sched.makespan,
        "sched.max_queue_wait_s": sched.max_queue_wait(),
        "cp.makespan_s": cp.makespan,
        "cp.busy_s": cp.busy_time,
        "cp.wait_s": cp.wait_time,
        "count.tasks_done": counters.get("bucket.tasks_done", 0.0),
        "count.bytes_pulled": counters.get("dart.bytes_pulled", 0.0),
        "count.des_dispatch": counters.get("des.dispatch", 0.0),
    }
    alerts: list[dict[str, Any]] = []
    probe_series: dict[str, list[list[float]]] = {}
    if sampler is not None:
        metrics["probe.samples"] = float(sampler.n_samples)
        metrics["slo.alerts"] = float(len(sampler.alerts))
        for gname, series in sampler.series.items():
            if series:
                metrics[f"probe.{gname}.max"] = max(v for _, v in series)
        alerts = [a.to_dict() for a in sampler.alerts]
        probe_series = {name: _downsample(series)
                        for name, series in sampler.series.items()}

    # Phase 1's replay ran under the tracer, so the capacity ledger was
    # attached by default; its figures gate like every other
    # deterministic metric, and the full report feeds the dashboard.
    cap = sched.capacity
    capacity_meta: dict[str, Any] | None = None
    if cap is not None:
        metrics["capacity.peak_resident_bytes"] = float(
            cap.peak_resident_bytes)
        metrics["capacity.registered_bytes"] = float(
            cap.registered_bytes_total)
        metrics["capacity.nic_peak_bytes"] = float(cap.nic_peak_bytes)
        metrics["capacity.nic_bytes_total"] = float(cap.nic_bytes_total)
        metrics["capacity.transfers"] = float(cap.n_transfers)
        metrics["capacity.leaked_regions"] = float(len(cap.leaks))
        metrics["capacity.headroom_violations"] = float(
            cap.headroom_violations)
        if cap.headroom_bytes is not None:
            metrics["capacity.headroom_bytes"] = float(cap.headroom_bytes)
        capacity_meta = cap.to_dict()

    fault_report = run_resilience_experiment(
        FaultConfig(seed=plan.fault_seed, crash_rate=100.0, horizon=0.06),
        n_tasks=32, n_buckets=4)
    metrics.update(fault_report.to_metrics())

    # Phase 3: kernel-tagged functional run (wall-clock, never gated).
    usages = top_kernels(traced_functional_run(3).trace)
    for u in usages:
        metrics[f"wall.kernel.{u.kernel}_s"] = u.wall_s

    # Phase 4: a small deterministic multi-tenant service batch, so the
    # service-layer figures (queue waits, cache hit rate, quota holds,
    # per-shard load) ride the same record/gate path as everything else.
    # Runs under its own tracing block to keep phase-1 metrics untouched;
    # tenant-b's 1-job quota forces a hold, the duplicate spec forces a
    # cache hit, and the sharded spec populates the per-shard gauges.
    from repro.service import CampaignService, JobSpec, TenantQuota

    with tracing() as stracer:
        svc = CampaignService(
            workers=3, quotas=[TenantQuota("tenant-b", max_concurrent=1)])
        svc.run_batch([
            JobSpec(tenant="tenant-a", name="replay", n_steps=2, n_buckets=3),
            JobSpec(tenant="tenant-a", name="rerun", n_steps=2, n_buckets=3),
            JobSpec(tenant="tenant-b", name="sharded-1", n_steps=2,
                    n_buckets=4, n_shards=2),
            JobSpec(tenant="tenant-b", name="sharded-2", n_steps=2,
                    n_buckets=4, n_shards=2),
        ])
    ssnap = stracer.metrics.snapshot()
    waits = ssnap["histograms"].get("service.queue_wait_s")
    if waits is not None:
        metrics["service.queue_wait_mean_s"] = waits["mean"]
        metrics["service.queue_wait_max_s"] = waits["max"]
    for gname, gauge in ssnap["gauges"].items():
        if gname.startswith("service."):
            metrics[gname] = gauge["last"]
    metrics["service.jobs_done"] = ssnap["counters"].get(
        "service.cache_hits", 0.0) + ssnap["counters"].get(
        "service.cache_misses", 0.0)
    metrics["service.held_events"] = float(
        sum(job.held for job in svc.jobs))

    # Phase 5: the adaptive-controller fault scenario — static vs
    # adaptive makespans and the decision count ride the gate, so a
    # change that silences the controller (or slows its recovery) trips
    # the comparison exactly like a kernel regression would.
    from repro.control import CONTROL_PLAN, run_control_scenario

    control = run_control_scenario(
        replace(CONTROL_PLAN, n_steps=8, fault_seed=plan.fault_seed))
    metrics.update(control.to_metrics())

    metrics["wall.record_s"] = time.perf_counter() - wall_start

    meta = {
        "backend": get_backend(),
        "top_kernels": [u.to_dict() for u in usages],
        "n_steps": plan.n_steps,
        "n_buckets": plan.n_buckets,
        "perturb": dict(perturb or {}),
        "probe_interval_s": probe_interval,
        "alerts": alerts,
        "probe_series": probe_series,
        "capacity": capacity_meta,
        "stage_breakdown": exp.breakdown().fig6_series(),
        "control_decisions": control.controller.decision_log(),
        "control_pool_trajectory": [[t, n] for t, n
                                    in control.controller.pool_trajectory],
        "slo_rules": ([asdict(obj) for obj in sampler.monitor.objectives]
                      if sampler is not None else []),
        "host": os.uname().sysname if hasattr(os, "uname") else "unknown",
    }
    return RunRecord.new(source=source, metrics=metrics,
                         machine=machine_fingerprint(exp.machine),
                         meta=meta)

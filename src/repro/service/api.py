"""`CampaignService`: the multi-tenant campaign service front-end.

Composition (one batch, end to end)::

    submit --> JobQueue --(fair-share + QuotaManager admission)--> WorkerPool
                   |                                                  |
                   'asks per candidate                                v
                                                    JobExecutor: ScheduleCache
                                                      hit  -> cached result
                                                      miss -> ScaledExperiment
                                                              .run_schedule
                                                              (DataSpaces; n_shards>1
                                                               deals buckets round-robin)

The service clock is a dedicated DES engine: queue waits, quota holds
and worker occupancy play out in simulated service time, so every batch
is deterministic and the whole layer is testable at machine speed
(SIM-SITU's argument, applied to our own service).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.runner import ScaledExperiment, ScheduleResult
from repro.des import Engine
from repro.obs.capacity import capacity_objectives
from repro.obs.live import (
    KIND_CAPACITY,
    Alert,
    BurnRateMonitor,
    TelemetryBus,
    default_objectives,
)
from repro.obs.metrics import nearest_rank
from repro.obs.tracer import get_tracer
from repro.service.cache import ScheduleCache
from repro.service.queue import Job, JobQueue, JobSpec, JobState
from repro.service.quota import Denial, JobDemand, QuotaManager, TenantQuota
from repro.service.workers import WorkerPool
from repro.staging.dataspaces import ShardBalanceReport

if TYPE_CHECKING:
    from repro.obs.perf import RunStore

JOBS_SOURCE = "service-job"

#: Every service's objectives (frozen, so the services share them).
_OBJECTIVES = default_objectives() + capacity_objectives()


class JobExecutor:
    """Runs one job: schedule-cache lookup, else a full DES replay."""

    def __init__(self, cache: ScheduleCache,
                 probe_interval: float | None = None) -> None:
        self.cache = cache
        #: Probe sampling period for executed replays. Deliberately NOT
        #: part of the cache key: sampling never changes the schedule.
        self.probe_interval = probe_interval
        self._experiments: dict[str, ScaledExperiment] = {}

    def _experiment(self, spec: JobSpec) -> ScaledExperiment:
        """The one experiment every job of ``spec.config`` shares (its
        closed-form costs depend on nothing else in the spec)."""
        exp = self._experiments.get(spec.config)
        if exp is None:
            exp = self._experiments[spec.config] = ScaledExperiment(
                spec.experiment_config())
        return exp

    def demand(self, spec: JobSpec) -> JobDemand:
        """Resources the job pins: its core allocation plus the peak
        staging bytes of the replay (closed-form, no DES needed)."""
        exp = self._experiment(spec)
        return JobDemand(
            staging_bytes=exp.staging_memory_needed(
                spec.analysis_interval, spec.buckets(exp.config)),
            cores=exp.config.n_cores)

    def execute(self, spec: JobSpec) -> tuple[ScheduleResult, bool]:
        """``(result, cache_hit)`` for one job: the spec is the plan."""
        key = spec.cache_key()
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached, True
        sched = self._experiment(spec).run_schedule(
            spec, probe_interval=self.probe_interval)
        self.cache.insert(key, sched, meta={"config": spec.config})
        return sched, False


def _percentiles(values: list[float],
                 points: tuple[int, ...] = (50, 95, 99)) -> dict[str, float]:
    """Nearest-rank percentiles (the :class:`Histogram` convention) —
    a one-job tenant reports p50=p95=p99."""
    if not values:
        return {}
    ordered = sorted(values)
    return {f"p{p}": nearest_rank(ordered, p) for p in points}


@dataclass
class TenantReport:
    """One tenant's slice of a service batch."""

    tenant: str
    submitted: int = 0
    done: int = 0
    failed: int = 0
    queued: int = 0
    cache_hits: int = 0
    #: Times this tenant's jobs were passed over by admission control.
    held_events: int = 0
    total_queue_wait: float = 0.0
    max_queue_wait: float = 0.0
    makespan_total: float = 0.0
    bytes_pulled: int = 0
    #: In-transit tasks the done jobs' replays lost (terminal failures).
    failed_tasks: int = 0
    #: Per-job dispatch waits (feeds the percentile summary).
    queue_waits: list[float] = field(default_factory=list)
    #: Burn-rate alerts attributed to this tenant during the batch.
    alerts: int = 0
    #: Quota true-up (ledger-capable jobs only): summed admission
    #: estimates vs ledger-measured peaks. Negative delta = the analytic
    #: model over-charged the tenant.
    staging_estimated_bytes: int = 0
    staging_measured_bytes: int = 0
    staging_delta_bytes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant, "submitted": self.submitted,
            "done": self.done, "failed": self.failed, "queued": self.queued,
            "cache_hits": self.cache_hits, "held_events": self.held_events,
            "total_queue_wait": self.total_queue_wait,
            "max_queue_wait": self.max_queue_wait,
            "makespan_total": self.makespan_total,
            "bytes_pulled": self.bytes_pulled,
            "failed_tasks": self.failed_tasks,
            # Defined for every tenant that completed >= 1 job (a
            # single-job tenant reports p50=p95=p99), not only n > 1.
            "service.queue_wait_s": _percentiles(self.queue_waits),
            "alerts": self.alerts,
            "staging_estimated_bytes": self.staging_estimated_bytes,
            "staging_measured_bytes": self.staging_measured_bytes,
            "staging_delta_bytes": self.staging_delta_bytes,
        }


@dataclass
class ServiceReport:
    """Whole-batch outcome: per-tenant figures + service-level stats."""

    tenants: dict[str, TenantReport]
    jobs: list[Job]
    duration: float
    cache_hits: int
    cache_misses: int
    held_events: int
    shard_balance: ShardBalanceReport | None = None
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: Burn-rate alerts raised while the batch drained (fire order).
    alerts: list[Alert] = field(default_factory=list)
    #: Cache entries that no longer decoded and were replayed as misses.
    cache_decode_errors: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def all_done(self) -> bool:
        return all(j.state is JobState.DONE for j in self.jobs)

    def to_dict(self) -> dict[str, Any]:
        out = {
            "duration": self.duration,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "held_events": self.held_events,
            "all_done": self.all_done,
            "tenants": {t: r.to_dict() for t, r in sorted(self.tenants.items())},
            "jobs": [j.to_dict() for j in self.jobs],
            "shard_balance": (self.shard_balance.to_dict()
                              if self.shard_balance is not None else None),
            "quotas": {t: q.to_dict() for t, q in sorted(self.quotas.items())},
            "alerts": [a.to_dict() for a in self.alerts],
        }
        if self.cache_decode_errors:
            out["cache_decode_errors"] = self.cache_decode_errors
        return out

    def table(self) -> str:
        """Per-tenant summary table (the ``repro serve`` batch report)."""
        header = (f"{'tenant':<12} {'jobs':>4} {'done':>4} {'fail':>4} "
                  f"{'queued':>6} {'hits':>4} {'held':>4} "
                  f"{'max wait (s)':>12} {'makespan (s)':>12}")
        lines = [header, "-" * len(header)]
        for tenant in sorted(self.tenants):
            r = self.tenants[tenant]
            lines.append(
                f"{tenant:<12} {r.submitted:>4} {r.done:>4} {r.failed:>4} "
                f"{r.queued:>6} {r.cache_hits:>4} {r.held_events:>4} "
                f"{r.max_queue_wait:>12.3f} {r.makespan_total:>12.3f}")
        lines.append(
            f"batch: {len(self.jobs)} jobs in {self.duration:.3f}s service "
            f"time, cache hit rate {self.cache_hit_rate:.0%}, "
            f"{self.held_events} quota hold(s)")
        lost = sum(r.failed_tasks for r in self.tenants.values())
        if lost:
            lines.append(f"tasks: {lost} in-transit task(s) failed "
                         f"terminally and left no result")
        if self.cache_decode_errors:
            lines.append(
                f"cache: {self.cache_decode_errors} decode error(s), "
                f"damaged entries dropped and replayed")
        return "\n".join(lines)


class CampaignService:
    """Multi-tenant schedule-as-a-service over a dedicated DES engine."""

    def __init__(self, workers: int = 2,
                 quotas: list[TenantQuota] | None = None,
                 default_quota: TenantQuota | None = None,
                 cache: ScheduleCache | RunStore | str | Path | None = None,
                 jobs_store: RunStore | str | Path | None = None,
                 bus: TelemetryBus | None = None,
                 probe_interval: float | None = None) -> None:
        self.engine = Engine()
        self.queue = JobQueue()
        self.quota = QuotaManager(quotas, default=default_quota)
        self.cache = (cache if isinstance(cache, ScheduleCache)
                      else ScheduleCache(cache))
        self.executor = JobExecutor(self.cache, probe_interval=probe_interval)
        #: Live telemetry plane: the bus carries job/span/probe/alert
        #: events; the monitor turns queue-wait and makespan-slowdown
        #: observations into per-tenant burn-rate alerts. Both exist
        #: even without a bus so `repro serve` gates on alerts in every
        #: mode.
        self.bus = bus
        self.monitor = BurnRateMonitor(_OBJECTIVES, bus=bus,
                                       tracer=get_tracer())
        if jobs_store is not None:
            from repro.obs.perf import RunStore

            if not isinstance(jobs_store, RunStore):
                jobs_store = RunStore(jobs_store)
        self.jobs_store = jobs_store
        self.jobs: list[Job] = []
        self._job_ids = itertools.count(1)
        self.pool = WorkerPool(self.engine, workers,
                               next_job=self._next_job,
                               run_job=self._run_job,
                               on_done=self._job_done)
        #: Batch-level cache accounting (the shared ScheduleCache may be
        #: warmed by earlier services; these count only this batch).
        self.cache_hits = 0
        self.cache_misses = 0
        self._decode_errors_before = self.cache.decode_errors
        # Attach the bus last: worker process.start instants fire during
        # pool construction and are service plumbing, not tenant events —
        # everything published from here on is job-attributable.
        tracer = get_tracer()
        if bus is not None and tracer.enabled:
            tracer.attach_bus(bus)

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Register one job; it enters the queue at ``spec.submit_at``."""
        if self.pool.closed:
            raise RuntimeError("this service has drained; submit the next "
                               "batch to a new one (it may share the cache)")
        job = Job(spec=spec,
                  job_id=f"{spec.tenant}/{spec.name}#{next(self._job_ids)}")
        self.jobs.append(job)
        at = max(spec.submit_at, self.engine.now)
        self.engine.call_at(at, self._enqueue, job)
        return job

    def _enqueue(self, job: Job) -> None:
        job.submit_t = self.engine.now
        self.queue.push(job)
        if self.bus is not None:
            self._publish("job.queued", job,
                          queue_depth=self.queue.pending_for(job.tenant))
        self._pump()

    # -- live telemetry ------------------------------------------------------

    def _publish(self, name: str, job: Job, **data: Any) -> None:
        """One job-lifecycle event on the bus (callers check there is one)."""
        self.bus.publish("job", name, t=self.engine.now, lane="service",
                         tenant=job.tenant, job_id=job.job_id, **data)

    # -- scheduling ----------------------------------------------------------

    def _admit(self, job: Job) -> Denial | None:
        if job.demand is None:
            job.demand = self.executor.demand(job.spec)
        denial = self.quota.check(job.tenant, job.demand)
        if denial is not None and self.bus is not None:
            name = "job.failed" if denial.permanent else "job.held"
            self._publish(name, job, reason=denial.reason)
        return denial

    def _next_job(self) -> Job | None:
        job = self.queue.pop_runnable(self._admit)
        if job is not None:
            self.quota.acquire(job.tenant, job.demand)
        return job

    def _pump(self) -> None:
        while self.pool.idle_count():
            job = self._next_job()
            if job is None:
                break
            self.pool.dispatch(job)

    def _run_job(self, job: Job, worker: str) -> float:
        job.state = JobState.RUNNING
        job.worker = worker
        job.start_t = now = self.engine.now
        wait = job.queue_wait
        # The null tracer's calls are no-ops: an untraced hit skips them.
        tracer = get_tracer()
        traced = tracer.enabled
        if traced:
            tracer.metrics.histogram("service.queue_wait_s").observe(wait)
        if self.bus is not None:
            self._publish("job.start", job, worker=worker, queue_wait=wait)
        self.monitor.observe(job.tenant, "queue_wait_s", t=now, value=wait,
                             job_id=job.job_id)
        try:
            if traced:
                # Ambient tenant/job context: every span, instant and probe
                # sample the inner replay engine records carries these tags,
                # so bus events stay attributable across the DES boundary.
                with tracer.context(tenant=job.tenant, job=job.job_id):
                    sched, hit = self.executor.execute(job.spec)
            else:
                sched, hit = self.executor.execute(job.spec)
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            job.state = JobState.FAILED
            job.error = repr(exc)
            if traced:
                tracer.metrics.counter("service.jobs_failed").inc()
            return 0.0
        finally:
            # The inner replay engine stole the tracer clock ("last
            # engine wins"); later service events must read service time.
            if traced:
                tracer.attach_engine(self.engine)
        job.result = sched
        job.cache_hit = hit
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if traced:
            tracer.metrics.counter("service.cache_hits" if hit
                                   else "service.cache_misses").inc()
        # A hit serves from memory (free on the service clock); a miss
        # occupies the worker's allocation for the replay's makespan.
        return 0.0 if hit else sched.makespan

    def _true_up(self, job: Job, cap: Any) -> None:
        """Reconcile the admission estimate against the job's capacity
        ledger and feed the per-tenant capacity objectives.

        Runs for every ledger-capable completion, cache hits included —
        a cached :class:`ScheduleResult` carries the capacity report
        measured when the schedule was first executed, and the tenant
        pinned its full admission estimate either way.
        """
        estimated = job.demand.staging_bytes
        measured = cap.peak_resident_bytes
        self.quota.true_up(job.tenant, job.job_id, estimated, measured)
        if estimated > 0:
            self.monitor.observe(job.tenant, "staging_peak_frac",
                                 t=self.engine.now,
                                 value=measured / estimated,
                                 job_id=job.job_id)
            self.monitor.observe(job.tenant, "nic_peak_frac",
                                 t=self.engine.now,
                                 value=cap.nic_peak_bytes / estimated,
                                 job_id=job.job_id)
        if self.bus is not None:
            self.bus.publish(KIND_CAPACITY, "capacity.job",
                             t=self.engine.now, lane="service",
                             tenant=job.tenant, job_id=job.job_id,
                             estimated=estimated, measured=measured,
                             delta=measured - estimated,
                             nic_peak=cap.nic_peak_bytes,
                             leaks=len(cap.leaks))

    def _job_done(self, job: Job) -> None:
        job.finish_t = self.engine.now
        if job.state is JobState.RUNNING:
            job.state = JobState.DONE
        self.quota.release(job.tenant, job.demand)
        if job.state is JobState.DONE and job.result is not None:
            sched = job.result
            slowdown = (sched.makespan / (sched.n_steps * sched.sim_step_time)
                        if sched.n_steps and sched.sim_step_time else 0.0)
            if self.bus is not None:
                self._publish("job.done", job, makespan=sched.makespan,
                              slowdown=slowdown, cache_hit=job.cache_hit)
            self.monitor.observe(job.tenant, "makespan_slowdown",
                                 t=self.engine.now, value=slowdown,
                                 job_id=job.job_id)
            if sched.capacity is not None and job.demand is not None:
                self._true_up(job, sched.capacity)
        elif job.state is JobState.FAILED and self.bus is not None:
            self._publish("job.failed", job, error=job.error)
        tracer = get_tracer()
        metrics = tracer.metrics
        served = self.cache_hits + self.cache_misses
        if tracer.enabled and served:
            metrics.gauge("service.cache_hit_rate").set(
                self.cache_hits / served)
        if (tracer.enabled and job.result is not None
                and job.result.shard_balance is not None):
            for load in job.result.shard_balance.loads:
                metrics.gauge(f"service.shard.{load.shard}.tasks").set(
                    float(load.tasks))
                metrics.gauge(f"service.shard.{load.shard}.bytes").set(
                    float(load.bytes))
        if self.jobs_store is not None:
            from repro.obs.perf import RunRecord

            self.jobs_store.append(RunRecord.new(
                source=JOBS_SOURCE,
                metrics={
                    "service.queue_wait_s": job.queue_wait or 0.0,
                    "service.makespan_s": (job.result.makespan
                                           if job.result else 0.0),
                },
                meta=job.to_dict()))
        self._pump()

    # -- draining ------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drain the service, then release its pool: it takes no new jobs."""
        self.engine.run()
        self.pool.close()
        return self.report()

    def run_batch(self, specs: list[JobSpec]) -> ServiceReport:
        for spec in specs:
            self.submit(spec)
        return self.run()

    # -- reporting -----------------------------------------------------------

    def report(self) -> ServiceReport:
        tenants: dict[str, TenantReport] = {}
        balances: list[ShardBalanceReport] = []
        held_events = 0
        for job in self.jobs:
            rep = tenants.get(job.tenant)
            if rep is None:
                rep = tenants[job.tenant] = TenantReport(tenant=job.tenant)
            rep.submitted += 1
            rep.held_events += job.held
            held_events += job.held
            if job.state is JobState.DONE:
                rep.done += 1
                rep.cache_hits += int(job.cache_hit)
                wait = job.queue_wait or 0.0
                rep.total_queue_wait += wait
                rep.max_queue_wait = max(rep.max_queue_wait, wait)
                rep.queue_waits.append(wait)
                if job.result is not None:
                    rep.makespan_total += job.result.makespan
                    rep.bytes_pulled += sum(map(attrgetter("bytes_pulled"),
                                                job.result.results))
                    rep.failed_tasks += job.result.failed_tasks
                    if job.result.shard_balance is not None:
                        balances.append(job.result.shard_balance)
            elif job.state is JobState.FAILED:
                rep.failed += 1
            else:
                rep.queued += 1
        for alert in self.monitor.alerts:
            if alert.tenant in tenants:
                tenants[alert.tenant].alerts += 1
        for tenant, rep in tenants.items():
            summary = self.quota.true_up_summary(tenant)
            rep.staging_estimated_bytes = summary["estimated_bytes"]
            rep.staging_measured_bytes = summary["measured_bytes"]
            rep.staging_delta_bytes = summary["delta_bytes"]
        return ServiceReport(
            tenants=tenants,
            jobs=list(self.jobs),
            duration=self.engine.now,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            held_events=held_events,
            shard_balance=(ShardBalanceReport.merge(balances)
                           if balances else None),
            quotas={**self.quota.quotas, "*": self.quota.default},
            alerts=list(self.monitor.alerts),
            cache_decode_errors=(self.cache.decode_errors
                                 - self._decode_errors_before),
        )

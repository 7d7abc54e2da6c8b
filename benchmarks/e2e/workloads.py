"""The four benchmark workloads.

Each workload turns ``--seed`` into inputs (the program under test only
ever sees the generated inputs), builds its fixtures once, and exposes

* ``round()`` — the fixed bundle of calls one timed operation consists of;
* ``verify(out)`` — ``(summary, errors)``: the facts pinned in
  ``expected.json`` for the default seed plus the workload's invariants;
* ``work`` — work units one round completes (the ``work_per_s`` numerator).

Seeds perturb *values* (grid extents, spec assignment, flame parameters),
never *counts* (steps, tasks, jobs, cells): ten runs on ten seeds must
cost the same to within the benchmark's own noise, otherwise seed-to-seed
cost differences would be booked as run-to-run spread.

Round contents are FROZEN: they change only in a ``benchmark`` PR that
also regenerates ``expected.json`` and the committed trajectory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Any

from repro.backend import use_backend
from repro.core.framework import FrameworkResult, HybridFramework
from repro.core.runner import ExperimentConfig, ScaledExperiment, ScheduleResult
from repro.obs.blame import blame
from repro.obs.export import to_chrome_trace
from repro.obs.live import TelemetryBus
from repro.obs.tracer import tracing
from repro.service import CampaignService, JobSpec, ScheduleCache, TenantQuota
from repro.sim.grid import StructuredGrid3D
from repro.sim.lifted_flame import LiftedFlameCase
from repro.vmpi.decomp import BlockDecomposition3D


def _perturbed(config: ExperimentConfig, rng: random.Random) -> ExperimentConfig:
    """``config`` with every global grid extent moved by up to +-8 cells:
    all simulated durations and wire sizes change with the seed, the
    number of tasks and DES events does not."""
    shape = tuple(n + rng.randint(-8, 8) for n in config.global_shape)
    return dataclasses.replace(config, global_shape=shape)


def _replay_facts(result: ScheduleResult) -> dict[str, Any]:
    return {"makespan": repr(result.makespan), "tasks": len(result.results)}


class ReplayLong:
    """Fig. 5 temporal-multiplexing replay at length, observers off."""

    name = "replay_long"
    work_unit = "tasks"
    WIDE_STEPS = 480      # paper_4896 on its 256 buckets: never queues
    STARVED_STEPS = 160   # paper_9440 on 8 buckets: deep scheduler queue
    STARVED_BUCKETS = 8
    work = 3 * (WIDE_STEPS + STARVED_STEPS)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.wide = ScaledExperiment(
            _perturbed(ExperimentConfig.paper_4896(), rng))
        self.starved = ScaledExperiment(
            _perturbed(ExperimentConfig.paper_9440(), rng))

    def round(self) -> tuple[ScheduleResult, ScheduleResult]:
        return (self.wide.run_schedule(n_steps=self.WIDE_STEPS),
                self.starved.run_schedule(n_steps=self.STARVED_STEPS,
                                          n_buckets=self.STARVED_BUCKETS))

    def verify(self, out) -> tuple[dict[str, Any], list[str]]:
        wide, starved = out
        errors = []
        if len(wide.results) + len(starved.results) != self.work:
            errors.append("task count differs from the declared work")
        if not wide.keeps_pace():
            errors.append("wide replay queued: no longer the never-queues leg")
        if starved.keeps_pace():
            errors.append("starved replay kept pace: no longer the deep-queue leg")
        return ({"wide": _replay_facts(wide),
                 "starved": _replay_facts(starved)}, errors)


class ReplayObserved:
    """The ``replay_long`` code path with every observer switched on."""

    name = "replay_observed"
    work_unit = "tasks"
    STEPS = 92
    BUCKETS = 8
    work = 3 * STEPS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.experiment = ScaledExperiment(
            _perturbed(ExperimentConfig.paper_4896(), rng))
        self.probe_interval = 0.25 * self.experiment.simulation_step_time()

    def round(self):
        bus = TelemetryBus()
        with tracing() as tracer:
            tracer.attach_bus(bus)
            result = self.experiment.run_schedule(
                n_steps=self.STEPS, n_buckets=self.BUCKETS,
                probe_interval=self.probe_interval)
        report = blame(tracer.trace)
        doc = to_chrome_trace(tracer.trace, tracer.metrics)
        return result, tracer, bus, report, doc

    def verify(self, out) -> tuple[dict[str, Any], list[str]]:
        result, tracer, bus, report, doc = out
        errors = []
        if len(result.results) != self.work:
            errors.append("task count differs from the declared work")
        if not report.overall.check(1e-6):
            errors.append("blame buckets do not sum to the window")
        if abs(report.makespan - result.makespan) > 1e-6:
            errors.append("blame window differs from the replay makespan")
        if report.method != "causal":
            errors.append(f"blame fell back to the {report.method} path")
        if result.capacity is None or result.probes is None:
            errors.append("capacity ledger or probe sampler did not attach")
        elif result.capacity.leaks:
            errors.append("capacity ledger reports leaked regions")
        if bus.dropped_total:
            errors.append("telemetry bus overflowed")
        facts = _replay_facts(result)
        facts.update(spans=len(tracer.trace.spans), bus_events=bus.published,
                     trace_events=len(doc["traceEvents"]))
        return facts, errors


class ServeSweep:
    """A cold batch of distinct short jobs, then the same batch warm."""

    name = "serve_sweep"
    work_unit = "jobs"
    WORKERS = 3
    WARM_SERVICES = 18
    #: Distinct step counts => distinct cache keys; the multiset is fixed
    #: so every seed replays the same total number of steps.
    STEP_COUNTS = (4, 6, 8, 10, 12, 14, 18)
    BUCKET_COUNTS = (3, 3, 4, 4, 5, 5, 6)
    TENANTS = ("tenant-a",) * 3 + ("tenant-b",) * 2 + ("tenant-c",) * 2
    work = len(STEP_COUNTS) * (1 + WARM_SERVICES)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        steps = rng.sample(self.STEP_COUNTS, len(self.STEP_COUNTS))
        buckets = rng.sample(self.BUCKET_COUNTS, len(self.BUCKET_COUNTS))
        tenants = rng.sample(self.TENANTS, len(self.TENANTS))
        sharded = rng.randrange(len(steps))
        self.specs = [
            JobSpec(tenant=tenant, name=f"job-{i}", n_steps=n_steps,
                    n_buckets=n_buckets, n_shards=2 if i == sharded else 1)
            for i, (tenant, n_steps, n_buckets)
            in enumerate(zip(tenants, steps, buckets))]
        # What each job's replay must equal: the same spec called directly.
        self.direct = [repr(self._direct(spec).makespan) for spec in self.specs]

    @staticmethod
    def _direct(spec: JobSpec) -> ScheduleResult:
        return ScaledExperiment(spec.experiment_config()).run_schedule(
            n_steps=spec.n_steps, analyses=spec.variants(),
            n_buckets=spec.n_buckets, n_shards=spec.n_shards)

    def _service(self, cache: ScheduleCache) -> CampaignService:
        return CampaignService(
            workers=self.WORKERS,
            quotas=[TenantQuota("tenant-b", max_concurrent=1)], cache=cache)

    def round(self):
        cache = ScheduleCache()
        cold = self._service(cache).run_batch(self.specs)
        warm = [self._service(cache).run_batch(self.specs)
                for _ in range(self.WARM_SERVICES)]
        return cold, warm

    def verify(self, out) -> tuple[dict[str, Any], list[str]]:
        cold, warm = out
        errors = []
        if not cold.all_done or cold.cache_hit_rate != 0.0:
            errors.append("cold batch: not all done or not all misses")
        cold_makespans = [repr(job.result.makespan) for job in cold.jobs]
        if cold_makespans != self.direct:
            errors.append("cold makespans differ from direct run_schedule")
        for report in warm:
            if not report.all_done or report.cache_hit_rate != 1.0:
                errors.append("warm batch: not all done or not all hits")
            if [repr(job.result.makespan) for job in report.jobs] != self.direct:
                errors.append("warm makespans differ from the cold batch")
        jobs = len(cold.jobs) + sum(len(r.jobs) for r in warm)
        if jobs != self.work:
            errors.append("job count differs from the declared work")
        return ({"jobs": jobs, "all_done": cold.all_done,
                 "cold_hit_rate": cold.cache_hit_rate,
                 "warm_hit_rate": min(r.cache_hit_rate for r in warm),
                 "held_events": cold.held_events,
                 "duration": repr(cold.duration),
                 "makespans": cold_makespans}, errors)


def _result_digest(result: FrameworkResult) -> str:
    """Exact fingerprint of what the functional pipeline produced."""
    h = hashlib.sha256()
    for step in sorted(result.statistics):
        for name, stats in sorted(result.statistics[step].items()):
            h.update(f"{step}/{name}/{sorted(stats.as_dict().items())!r}".encode())
    for step in sorted(result.merge_trees):
        tree = result.merge_trees[step]
        h.update(repr((step, sorted(tree.value.items()), tree.arcs())).encode())
    for step in sorted(result.hybrid_images):
        image = result.hybrid_images[step]
        h.update(repr((step, image.shape, image.dtype.str)).encode())
        h.update(image.tobytes())
    h.update(repr([(t.task_id, t.bucket, t.finish_time, t.bytes_pulled)
                   for t in result.task_results]).encode())
    return h.hexdigest()


class PipelineFunctional:
    """Real solver, real kernels, real data movement at laptop scale."""

    name = "pipeline_functional"
    work_unit = "cell-steps"
    SHAPE = (24, 24, 16)
    RANKS = (2, 2, 2)
    STEPS = 2
    BUCKETS = 2
    work = SHAPE[0] * SHAPE[1] * SHAPE[2] * STEPS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # The seed moves the flame's parameters; the stochastic ignition
        # kernels stay off because their *number* (a Poisson draw) would
        # change the amount of work from seed to seed.
        self.case_args = dict(
            jet_velocity=rng.uniform(1.8, 2.2),
            coflow_velocity=rng.uniform(0.45, 0.55),
            jet_temperature=rng.uniform(0.36, 0.44),
            turbulence_rms=rng.uniform(0.32, 0.38),
            kernel_rate=0.0)

    def round(self) -> FrameworkResult:
        case = LiftedFlameCase(StructuredGrid3D(self.SHAPE), **self.case_args)
        framework = HybridFramework(
            case, BlockDecomposition3D(self.SHAPE, self.RANKS),
            n_buckets=self.BUCKETS)
        return framework.run(self.STEPS)

    def verify(self, out: FrameworkResult) -> tuple[dict[str, Any], list[str]]:
        errors = []
        if out.analysed_steps != list(range(self.STEPS)):
            errors.append("not every step was analysed")
        if len(out.task_results) != 3 * self.STEPS:
            errors.append("in-transit task count differs from 3 per step")
        return ({"digest": _result_digest(out),
                 "tasks": len(out.task_results),
                 "bytes_moved": out.bytes_moved}, errors)


WORKLOADS = {cls.name: cls for cls in
             (ServeSweep, ReplayLong, ReplayObserved, PipelineFunctional)}


def reference_summary(workload) -> dict[str, Any]:
    """One round under the pure-python ``reference`` backend; set-up
    requires its summary to equal the ``numpy`` one."""
    with use_backend("reference"):
        summary, _ = workload.verify(workload.round())
    return summary

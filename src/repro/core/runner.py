"""Full-scale experiment replay (Tables I & II, Figs. 5 & 6).

:class:`ExperimentConfig` captures the paper's two core allocations;
:class:`ScaledExperiment` produces

* :meth:`~ScaledExperiment.breakdown` — the per-timestep cost breakdown
  from the calibrated cost model (Table I rows, Table II rows, Fig. 6
  bars), and
* :meth:`~ScaledExperiment.run_schedule` — a DES replay of the staging
  workflow at full scale: per-timestep in-transit tasks with true wire
  sizes flow through DataSpaces' queue into staging buckets, exposing
  queue waits, bucket utilisation, and the temporal-multiplexing behaviour
  that decouples analysis latency from simulation cadence (§V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.core.breakdown import AnalyticsTiming, TimingBreakdown
from repro.core.workload import HYBRID_VARIANTS, AnalyticsVariant, ScaledWorkload
from repro.costmodel.jaguar import jaguar_cost_model
from repro.costmodel.models import CostModel
from repro.des import Engine
from repro.io.fpp import IOTimeModel
from repro.machine.specs import MachineSpec, jaguar_xk6
from repro.obs.probes import ProbeSampler, default_slos
from repro.obs.tracer import Tracer, get_tracer, tracing
from repro.staging.dataspaces import DataSpaces
from repro.staging.descriptors import TaskResult
from repro.staging.scheduler import AssignmentRecord
from repro.transport.dart import DartTransport

if TYPE_CHECKING:
    from repro.control.controller import PlacementController
    from repro.faults.injector import FaultConfig, FaultInjector
    from repro.obs.capacity import CapacityLedger, CapacityReport
    from repro.obs.tracer import SpanRecord
    from repro.service.shards import ShardBalanceReport, ShardedDataSpaces

PAPER_GLOBAL_SHAPE = (1600, 1372, 430)


@dataclass(frozen=True)
class ExperimentConfig:
    """One column of Table I."""

    name: str
    proc_grid: tuple[int, int, int]
    n_service_cores: int
    n_intransit_cores: int
    global_shape: tuple[int, int, int] = PAPER_GLOBAL_SHAPE
    n_vars: int = 14

    @property
    def n_sim_cores(self) -> int:
        px, py, pz = self.proc_grid
        return px * py * pz

    @property
    def n_cores(self) -> int:
        return self.n_sim_cores + self.n_service_cores + self.n_intransit_cores

    def workload(self) -> ScaledWorkload:
        return ScaledWorkload(self.global_shape, self.proc_grid,
                              n_vars=self.n_vars)

    @classmethod
    def paper_4896(cls) -> "ExperimentConfig":
        """Table I, first column: 4480 sim + 160 DataSpaces + 256 in-transit."""
        return cls(name="4896 cores", proc_grid=(16, 28, 10),
                   n_service_cores=160, n_intransit_cores=256)

    @classmethod
    def paper_9440(cls) -> "ExperimentConfig":
        """Table I, second column: 8960 sim + 256 DataSpaces + 224 in-transit."""
        return cls(name="9440 cores", proc_grid=(32, 28, 10),
                   n_service_cores=256, n_intransit_cores=224)


@dataclass
class ScheduleResult:
    """Outcome of a DES replay of the staging workflow."""

    results: list[TaskResult]
    makespan: float
    n_steps: int
    sim_step_time: float
    n_buckets: int
    #: Scheduler assignment records (Fig. 5 event-trace validation).
    assignments: list[AssignmentRecord] = field(default_factory=list)
    #: Live-probe sampler attached to the replay (``probe_interval``
    #: given under tracing), carrying gauge time series and SLO alerts.
    probes: "ProbeSampler | None" = None
    #: Per-shard load report when the replay ran on sharded staging
    #: (``n_shards > 1``); None on the classic single-space path.
    shard_balance: ShardBalanceReport | None = None
    #: The controller that rode the replay (``controller=`` given),
    #: carrying its decision log, windowed signals, and pool-size
    #: trajectory.
    controller: PlacementController | None = None
    #: The attached injector when the replay ran under an injected fault
    #: plan (``fault_config=`` given).
    faults: FaultInjector | None = None
    #: The finalized report when a capacity ledger rode the replay
    #: (``capacity=`` given, or tracing enabled) — measured resident-bytes
    #: watermarks, NIC occupancy, leak scan and headroom vs the analytic
    #: bound.
    capacity: CapacityReport | None = None

    def max_queue_wait(self) -> float:
        return max((r.queue_wait for r in self.results), default=0.0)

    def keeps_pace(self, slack: float = 1.0) -> bool:
        """True if no task waited longer than ~one simulation step in the
        queue — i.e. staging absorbs the arrival rate and analysis latency
        stays decoupled from simulation cadence (the §V claim). With too
        few buckets, queue waits grow with every analysed step instead."""
        return self.max_queue_wait() <= slack * self.sim_step_time


class ScaledExperiment:
    """The paper's experiment at full scale on the modeled machine.

    ``config``, ``machine`` and ``cost`` are fixed at construction: the
    closed-form per-variant costs are computed once and shared by every
    later call, so build a new experiment to model a different set-up.
    """

    def __init__(self, config: ExperimentConfig,
                 machine: MachineSpec | None = None,
                 cost_model: CostModel | None = None) -> None:
        self.config = config
        self.machine = machine or jaguar_xk6()
        self.machine.validate_allocation(config.n_cores)
        self.cost = cost_model or jaguar_cost_model()
        self.workload = config.workload()
        self._timings: dict[AnalyticsVariant, AnalyticsTiming] = {}

    # -- closed-form per-timestep costs (Tables I & II, Fig. 6) -----------------

    def simulation_step_time(self) -> float:
        return self.cost.time("s3d.step", self.workload.block_cells)

    def movement_time(self, variant: AnalyticsVariant) -> float:
        """End-to-end intermediate-data drain time for one timestep.

        All ranks' messages funnel into one serial staging consumer: per
        message, the wire time plus DataSpaces task handling; plus any
        serialization charge (topology's pointer-rich subtrees).
        """
        return self.analytics_timing(variant).movement_time

    def _movement_time(self, variant: AnalyticsVariant) -> float:
        per_rank = self.workload.movement_bytes_per_rank(variant)
        if per_rank == 0:
            return 0.0
        net = self.machine.network
        per_msg = (net.transfer_time(per_rank)
                   + self.cost.time("staging.task_overhead", 1))
        total = self.workload.n_ranks * per_msg
        pack = self.workload.movement_pack_op(variant)
        if pack is not None:
            total += self.cost.time(*pack)
        return total

    def analytics_timing(self, variant: AnalyticsVariant) -> AnalyticsTiming:
        """``variant``'s Table II row, evaluated once per experiment."""
        row = self._timings.get(variant)
        if row is None:
            row = self._timings[variant] = self._analytics_timing(variant)
        return row

    def _analytics_timing(self, variant: AnalyticsVariant) -> AnalyticsTiming:
        insitu_op, insitu_n = self.workload.insitu_op(variant)
        insitu = self.cost.time(insitu_op, insitu_n)
        if variant is AnalyticsVariant.STATS_HYBRID:
            insitu += self.cost.time("stats.pack_partial", self.workload.n_vars)
        intransit = 0.0
        op = self.workload.intransit_op(variant)
        if op is not None:
            intransit = self.cost.time(*op)
        return AnalyticsTiming(
            name=variant.value,
            insitu_time=insitu,
            movement_time=self._movement_time(variant),
            movement_bytes=self.workload.movement_bytes_total(variant),
            intransit_time=intransit,
        )

    def breakdown(self) -> TimingBreakdown:
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("breakdown.compute", lane="driver",
                             category="model", config=self.config.name):
                return self._breakdown()
        return self._breakdown()

    def _breakdown(self) -> TimingBreakdown:
        """Uninstrumented breakdown body (the tracer-overhead baseline)."""
        io = IOTimeModel(self.machine.filesystem)
        cfg = self.config
        return TimingBreakdown(
            n_cores=cfg.n_cores,
            n_sim_cores=cfg.n_sim_cores,
            n_service_cores=cfg.n_service_cores,
            n_intransit_cores=cfg.n_intransit_cores,
            global_shape=cfg.global_shape,
            n_vars=cfg.n_vars,
            data_bytes=self.workload.checkpoint_bytes,
            simulation_time=self.simulation_step_time(),
            io_read_time=io.read_time(cfg.global_shape, cfg.n_vars,
                                      cfg.n_sim_cores),
            io_write_time=io.write_time(cfg.global_shape, cfg.n_vars,
                                        cfg.n_sim_cores),
            analytics={v.value: self.analytics_timing(v)
                       for v in AnalyticsVariant},
        )

    def min_sustainable_interval(self, n_buckets: int) -> int:
        """Smallest analysis interval the staging area absorbs the hybrid
        topology tasks at (§III:
        "the fastest sustainable analysis frequency is limited by memory
        and processing constraints on the secondary system").

        Steady state requires one task's service time to fit within
        ``interval x sim_step x n_buckets``.
        """
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        row = self.analytics_timing(AnalyticsVariant.TOPO_HYBRID)
        task = row.movement_time + row.intransit_time
        return max(1, math.ceil(task / (self.simulation_step_time()
                                        * n_buckets)))

    def staging_memory_needed(self, analysis_interval: int,
                              n_buckets: int) -> int:
        """Peak intermediate bytes resident in the staging area.

        Each in-flight analysed step holds one copy of every hybrid
        variant's intermediate data; the number in flight is bounded by
        the slowest task's duration over the analysis cadence (and by the
        bucket count).
        """
        if analysis_interval < 1 or n_buckets < 1:
            raise ValueError("analysis_interval and n_buckets must be >= 1")
        rows = [self.analytics_timing(v) for v in HYBRID_VARIANTS]
        per_step = sum(row.movement_bytes for row in rows)
        slowest = max(row.movement_time + row.intransit_time for row in rows)
        cadence = analysis_interval * self.simulation_step_time()
        in_flight = min(math.ceil(slowest / cadence), n_buckets)
        return per_step * max(1, in_flight)

    # -- DES schedule replay (Fig. 5, temporal multiplexing) ---------------------

    def _service_cost_model(self) -> CostModel:
        """Base model + one 'service' op per hybrid variant: the time a
        bucket holds the task beyond the bulk pull (per-message handling
        overhead plus the in-transit computation)."""
        model = self.cost
        net = self.machine.network
        for variant in HYBRID_VARIANTS:
            row = self.analytics_timing(variant)
            overhead = (row.movement_time
                        - net.transfer_time(row.movement_bytes))
            model = model.with_rate(f"service.{variant.name}",
                                    max(overhead, 0.0) + row.intransit_time)
        return model

    def run_schedule(self, n_steps: int = 10,
                     analyses: tuple[AnalyticsVariant, ...] = HYBRID_VARIANTS,
                     n_buckets: int | None = None,
                     analysis_interval: int = 1,
                     probe_interval: float | None = None,
                     slos: tuple | None = None,
                     n_shards: int = 1,
                     lease_timeout: float | None = None,
                     bucket_restart_delay: float | None = None,
                     max_bucket_restarts: int = 0,
                     controller: PlacementController | None = None,
                     fault_config: FaultConfig | None = None,
                     capacity: CapacityLedger | bool | None = None
                     ) -> ScheduleResult:
        """Replay ``n_steps`` of the hybrid workflow on the DES.

        One grouped in-transit task per (hybrid analysis, analysed step)
        arrives when the simulation finishes that step; staging buckets
        pull the full-scale intermediate data and hold it for the modeled
        service time. Distinct timesteps land on distinct buckets — the
        paper's temporal multiplexing.

        With tracing enabled and ``probe_interval`` given, a
        :class:`~repro.obs.probes.ProbeSampler` rides the replay: the
        standard gauges (queue depth, NIC occupancy, bucket utilisation,
        RDMA live bytes) are sampled every ``probe_interval`` simulated
        seconds and the SLO rules (``slos``, default
        :func:`~repro.obs.probes.default_slos`) are checked live; the
        sampler is returned on :attr:`ScheduleResult.probes`.

        With ``n_shards > 1`` the staging area is a
        :class:`~repro.service.shards.ShardedDataSpaces`: N independent
        tuple-space shards (each with its own transport fabric and
        scheduler) with region keys DHT-routed across them; buckets are
        split over the shards and :attr:`ScheduleResult.shard_balance`
        carries the per-shard load report. The fault knobs
        (``lease_timeout``, ``bucket_restart_delay``,
        ``max_bucket_restarts``) mirror the :class:`DataSpaces`
        constructor and apply per shard.

        With ``controller`` (a :class:`repro.control.PlacementController`)
        the replay is driven by a DES process that consults the controller
        every policy window: analyses the controller has pulled in-situ
        are charged on the simulation timeline instead of being submitted
        in-transit, and the staging pool is elastically resized through
        :meth:`DataSpaces.scale_to`. A controller that takes no decisions
        reproduces the static replay bit-for-bit. ``fault_config`` (a
        :class:`repro.faults.FaultConfig`) attaches a deterministic fault
        plan — injected bucket crashes and RDMA pull faults — to either
        kind of replay. Both require ``n_shards == 1``.

        ``capacity`` controls the byte-accurate capacity ledger
        (:class:`repro.obs.capacity.CapacityLedger`): ``True`` (or a
        prebuilt ledger) attaches one to every transport of the run,
        ``False`` disables it, and the default ``None`` attaches one iff
        tracing is enabled — an untraced replay pays only the ``is
        None`` checks in the transport hot paths. The finalized report
        is returned on :attr:`ScheduleResult.capacity`.
        """
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if analysis_interval < 1:
            raise ValueError("analysis_interval must be >= 1")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards != 1 and (controller is not None
                              or fault_config is not None):
            raise ValueError(
                "controller= and fault_config= require n_shards == 1")
        n_buckets = n_buckets if n_buckets is not None else self.config.n_intransit_cores
        if n_buckets < 1:
            raise ValueError("need at least one staging bucket")

        engine = Engine()
        if n_shards == 1:
            staging = partial(DataSpaces, engine,
                              DartTransport(engine, self.machine.network))
        else:
            # Lazy import: repro.service depends on this module.
            from repro.service.shards import ShardedDataSpaces
            staging = partial(ShardedDataSpaces, engine,
                              self.machine.network, n_shards=n_shards)
        ds: DataSpaces | ShardedDataSpaces = staging(
            n_servers=max(1, self.config.n_service_cores),
            cost_model=self._service_cost_model(),
            lease_timeout=lease_timeout,
            bucket_restart_delay=bucket_restart_delay,
            max_bucket_restarts=max_bucket_restarts)
        probe_map = ds.probe_map()
        ds.spawn_buckets([f"staging-{i}" for i in range(n_buckets)])

        ledger = None
        if capacity is None:
            capacity = get_tracer().enabled
        if capacity:
            # Lazy import: repro.obs.capacity imports nothing from core.
            from repro.obs.capacity import CapacityLedger
            ledger = (capacity if isinstance(capacity, CapacityLedger)
                      else CapacityLedger())
            ledger.bind_clock(partial(getattr, engine, "now"))
            ledger.analytic_bound_bytes = self.staging_memory_needed(
                analysis_interval, n_buckets)
            for i, transport in enumerate(ds.transports):
                ledger.attach_transport(transport, shard=f"shard{i}")

        injector = None
        if fault_config is not None:
            # Lazy import: repro.faults depends on the staging layer.
            from repro.faults.injector import FaultInjector
            injector = FaultInjector(engine, fault_config).attach(ds)

        sampler: ProbeSampler | None = None
        if probe_interval is not None and get_tracer().enabled:
            sampler = ProbeSampler(
                probe_interval, probe_map,
                slos=default_slos(n_buckets) if slos is None else slos)
            engine.attach_probe(sampler)

        sim_dt = self.simulation_step_time()
        # Each analysed step charges the in-situ stages on the sim cores;
        # submissions happen at the end of the stretched step.
        insitu_total = self._insitu_total(analyses)
        nbytes = {v: self.analytics_timing(v).movement_bytes for v in analyses}
        tracer = get_tracer()
        insitu_results: list[TaskResult] = []

        def submit(step: int, src: SpanRecord | None,
                   placed_insitu: frozenset = frozenset()) -> None:
            # Anchor each submitted task's causal flow at the producing
            # in-situ span (sim span if no in-situ work).
            ds.flow_src = src
            try:
                for variant in analyses:
                    if variant in placed_insitu:
                        continue
                    ds.submit_insitu_result(
                        analysis=variant.value,
                        timestep=step,
                        source_node=f"sim-agg-{step}",
                        payload=None,
                        nbytes=nbytes[variant],
                        cost_op=f"service.{variant.name}",
                        cost_elements=1,
                    )
            finally:
                ds.flow_src = None

        if controller is None:
            t = 0.0
            for step in range(n_steps):
                sim_span = None
                if tracer.enabled:
                    # Model-time simulation timeline (the sim cores' lane).
                    sim_span = tracer.add_span("sim.step", lane="sim-timeline",
                                               t_start=t, t_end=t + sim_dt,
                                               category="sim",
                                               stage="simulation", step=step)
                t += sim_dt
                if step % analysis_interval == 0:
                    src_span = sim_span
                    if tracer.enabled and insitu_total > 0.0:
                        src_span = tracer.add_span("insitu",
                                                   lane="sim-timeline",
                                                   t_start=t,
                                                   t_end=t + insitu_total,
                                                   category="insitu",
                                                   stage="insitu", step=step)
                    t += insitu_total
                    engine.call_at(t, partial(submit, step, src_span))
            # Shutdown only after the last submission has been issued (the
            # drain logic then waits for outstanding tasks to finish).
            engine.call_at(t, ds.shutdown_buckets)
        else:
            # Adaptive replay: a DES driver process walks the same
            # timeline step by step so the controller can re-place
            # analyses and resize the pool *during* the run. With zero
            # decisions the float accumulation order matches the static
            # path exactly, so the results are bit-identical.
            controller.begin_run(experiment=self, ds=ds, analyses=analyses,
                                 n_buckets=n_buckets,
                                 analysis_interval=analysis_interval,
                                 probe_map=probe_map)
            intransit_extra = {v: self.analytics_timing(v).intransit_time
                               for v in analyses}
            window = controller.policy.window

            def drive():
                analysed = 0
                for step in range(n_steps):
                    t0 = engine.now
                    yield engine.timeout(sim_dt)
                    sim_span = None
                    if tracer.enabled:
                        sim_span = tracer.add_span(
                            "sim.step", lane="sim-timeline",
                            t_start=t0, t_end=engine.now,
                            category="sim", stage="simulation", step=step)
                    if step % analysis_interval != 0:
                        continue
                    t_in0 = engine.now
                    if insitu_total > 0.0:
                        yield engine.timeout(insitu_total)
                    # Analyses pulled in-situ run their completion stage
                    # on the simulation timeline: no movement, no queue —
                    # but the full in-transit compute charge stretches
                    # the step.
                    for variant in controller.insitu_placed():
                        seg0 = engine.now
                        if intransit_extra[variant] > 0.0:
                            yield engine.timeout(intransit_extra[variant])
                        insitu_results.append(TaskResult(
                            task_id=f"{variant.value}/t{step}/insitu",
                            analysis=variant.value, timestep=step,
                            bucket="sim-insitu", value=None,
                            enqueue_time=seg0, assign_time=seg0,
                            pull_done_time=seg0, finish_time=engine.now,
                            bytes_pulled=0))
                    src_span = sim_span
                    if tracer.enabled and engine.now > t_in0:
                        src_span = tracer.add_span(
                            "insitu", lane="sim-timeline",
                            t_start=t_in0, t_end=engine.now,
                            category="insitu", stage="insitu", step=step)
                    controller.note_step(sim_seconds=sim_dt,
                                         insitu_seconds=engine.now - t_in0)
                    submit(step, src_span,
                           frozenset(controller.insitu_placed()))
                    analysed += 1
                    if analysed % window == 0:
                        controller.on_window(engine.now)
                ds.shutdown_buckets()

            engine.process(drive(), name="controller-driver")
        engine.run()
        if sampler is not None:
            sampler.finalize(get_tracer().trace)
        results = ds.all_results()
        if insitu_results:
            results = sorted(results + insitu_results,
                             key=lambda r: r.finish_time)
        makespan = max((r.finish_time for r in results), default=0.0)
        return ScheduleResult(results=results, makespan=makespan,
                              n_steps=n_steps, sim_step_time=sim_dt,
                              n_buckets=n_buckets,
                              assignments=ds.assignment_records(),
                              probes=sampler,
                              shard_balance=ds.balance_report(),
                              controller=controller,
                              faults=injector,
                              capacity=(ledger.finalize()
                                        if ledger is not None else None))

    def _insitu_total(self, analyses: tuple[AnalyticsVariant, ...]) -> float:
        """Seconds one analysed step charges on the sim cores for the
        in-situ stages of ``analyses``.

        This omits STATS_HYBRID's ``stats.pack_partial`` charge, which
        :meth:`_analytics_timing` adds: the three hybrid variants charge
        4.44 s here against Table II's 4.49 s (EXPERIMENTS.md, Known
        deviation 4). Every pinned replay makespan depends on it."""
        return sum(self.cost.time(*self.workload.insitu_op(v))
                   for v in analyses)

    # -- observability ------------------------------------------------------------

    def expected_stage_totals(self, n_steps: int,
                              analyses: tuple[AnalyticsVariant, ...] =
                              HYBRID_VARIANTS,
                              analysis_interval: int = 1) -> dict[str, float]:
        """Model-side per-stage totals for a :meth:`run_schedule` replay.

        This is the reconciliation reference: the traced stage totals of a
        replay must add up to these figures (the ``movement`` wire spans
        and the ``intransit`` service spans split the combined
        movement+intransit charge between them, so they are compared as
        one bucket).
        """
        n_analysed = len(range(0, n_steps, analysis_interval))
        insitu_total = self._insitu_total(analyses)
        rows = [self.analytics_timing(v) for v in analyses]
        move_plus_intransit = sum(row.movement_time + row.intransit_time
                                  for row in rows)
        return {
            "simulation": n_steps * self.simulation_step_time(),
            "insitu": n_analysed * insitu_total,
            "movement+intransit": n_analysed * move_plus_intransit,
        }

    def traced_schedule(self, n_steps: int = 10,
                        n_buckets: int | None = None,
                        analysis_interval: int = 1,
                        probe_interval: float | None = None
                        ) -> tuple[Tracer, ScheduleResult, dict[str, float]]:
        """Replay the schedule under a fresh tracer.

        Returns ``(tracer, result, expected)`` where ``expected`` is
        :meth:`expected_stage_totals` for the same parameters — everything
        needed to export a Chrome trace and reconcile it.
        """
        with tracing() as tracer:
            result = self.run_schedule(n_steps, HYBRID_VARIANTS, n_buckets,
                                       analysis_interval,
                                       probe_interval=probe_interval)
        expected = self.expected_stage_totals(n_steps, HYBRID_VARIANTS,
                                              analysis_interval)
        return tracer, result, expected

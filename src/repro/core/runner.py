"""Full-scale experiment replay (Tables I & II, Figs. 5 & 6).

:class:`ExperimentConfig` captures the paper's two core allocations and
:class:`ReplayPlan` one staging replay's parameters;
:class:`ScaledExperiment` produces

* :meth:`~ScaledExperiment.breakdown` — the per-timestep cost breakdown
  from the calibrated cost model (Table I rows, Table II rows, Fig. 6
  bars), and
* :meth:`~ScaledExperiment.run_schedule` — a DES replay of a plan at full
  scale: per-timestep in-transit tasks with true wire sizes flow through
  DataSpaces' queue into staging buckets, exposing queue waits, bucket
  utilisation, and the temporal-multiplexing behaviour that decouples
  analysis latency from simulation cadence (§V).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any

from repro.core.breakdown import AnalyticsTiming, TimingBreakdown
from repro.core.workload import HYBRID_VARIANTS, AnalyticsVariant, ScaledWorkload
from repro.costmodel.jaguar import jaguar_cost_model
from repro.costmodel.models import CostModel
from repro.des import Engine
from repro.machine.specs import MachineSpec, jaguar_xk6
from repro.obs.probes import ProbeSampler, default_slos
from repro.obs.tracer import get_tracer
from repro.staging.dataspaces import DataSpaces, ShardBalanceReport
from repro.staging.descriptors import TaskResult
from repro.staging.scheduler import AssignmentRecord
from repro.transport.dart import DartTransport

if TYPE_CHECKING:
    from repro.control.controller import PlacementController
    from repro.faults.injector import FaultConfig, FaultInjector
    from repro.obs.capacity import CapacityLedger, CapacityReport
    from repro.obs.tracer import SpanRecord

PAPER_GLOBAL_SHAPE = (1600, 1372, 430)

#: The default machine: a frozen spec, so every experiment shares it.
_JAGUAR = jaguar_xk6()


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


_HYBRID_NAMES = tuple(v.name for v in HYBRID_VARIANTS)
_COUNTS = ("n_steps", "n_buckets", "analysis_interval", "n_shards",
           "max_bucket_restarts", "fault_seed")
_NUMBERS = ("lease_timeout", "bucket_restart_delay", "pull_failure_rate",
            "pull_stall_rate", "pull_stall_seconds")
_OPTIONAL = ("n_buckets", "lease_timeout", "bucket_restart_delay")
#: The least value of each bounded field (None, where allowed, is unset).
_LEAST = {"n_steps": 1, "analysis_interval": 1, "n_shards": 1,
          "max_bucket_restarts": 0, "bucket_restart_delay": 0}


@dataclass(frozen=True, kw_only=True)
class ReplayPlan:
    """One staging replay, validated once: what
    :meth:`ScaledExperiment.run_schedule` replays (a
    :class:`~repro.service.queue.JobSpec` is a plan with a tenant).

    Counts are ``int`` (never ``bool``) and rates finite numbers; the five
    fault fields are checked by the :class:`~repro.faults.FaultConfig`
    they describe once one is set. ``analyses`` holds hybrid variant names,
    each at most once (members are stored by name); lists become tuples.
    """

    n_steps: int = 10
    #: Staging buckets; None = the experiment's in-transit cores.
    n_buckets: int | None = None
    analysis_interval: int = 1
    analyses: tuple[str, ...] = _HYBRID_NAMES
    n_shards: int = 1
    # Recovery knobs of the staging area (applied per shard).
    lease_timeout: float | None = None
    bucket_restart_delay: float | None = None
    max_bucket_restarts: int = 0
    # Fault *injection* plan (deterministic, seeded).
    fault_seed: int = 0
    crash_times: tuple[float, ...] = ()
    pull_failure_rate: float = 0.0
    pull_stall_rate: float = 0.0
    pull_stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "analyses", tuple(
            a.name if isinstance(a, AnalyticsVariant) else a
            for a in self.analyses))
        object.__setattr__(self, "crash_times", tuple(self.crash_times))
        typed = [(name, getattr(self, name)) for name in _COUNTS + _NUMBERS]
        for name, value in typed + [("crash_times", t)
                                    for t in self.crash_times]:
            kind = Integral if name in _COUNTS else Real
            if not (value is None and name in _OPTIONAL) and (
                    isinstance(value, bool) or not isinstance(value, kind)
                    or not -math.inf < value < math.inf):  # NaN too
                noun = "an int" if kind is Integral else "a finite number"
                raise ValueError(f"{name} must be {noun}, got {value!r}")
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.n_buckets is not None and self.n_buckets < max(1, self.n_shards):
            raise ValueError(
                f"need at least one bucket per shard: {self.n_buckets} "
                f"bucket(s) for {self.n_shards} shard(s)")
        if self.lease_timeout is not None and self.lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be > 0, got {self.lease_timeout}")
        if not self.analyses:
            raise ValueError("need at least one analysis")
        for a in self.analyses:
            if a not in _HYBRID_NAMES:
                why = ("has no in-transit stage to replay"
                       if a in AnalyticsVariant.__members__ else "is unknown")
                raise ValueError(f"analysis {a!r} {why}; choose from "
                                 f"{list(_HYBRID_NAMES)}")
        if len(set(self.analyses)) != len(self.analyses):
            raise ValueError(
                f"each analysis may be named once, got {list(self.analyses)}")
        if (self.fault_seed or self.crash_times or self.pull_failure_rate
                or self.pull_stall_rate or self.pull_stall_seconds):
            self._faults()
        if self.crash_times and self.lease_timeout is None:
            raise ValueError(
                "crash_times require lease_timeout (crash recovery runs "
                "through the lease/reassignment path)")

    # -- derived -------------------------------------------------------------

    def variants(self) -> tuple[AnalyticsVariant, ...]:
        return tuple(AnalyticsVariant[a] for a in self.analyses)

    def buckets(self, config: ExperimentConfig) -> int:
        """The bucket count this plan replays on ``config``."""
        return (config.n_intransit_cores if self.n_buckets is None
                else self.n_buckets)

    def has_faults(self) -> bool:
        return bool(self.crash_times or self.pull_failure_rate
                    or self.pull_stall_rate)

    def fault_config(self) -> FaultConfig | None:
        """The replay's injection plan, or None when the plan is clean."""
        return self._faults() if self.has_faults() else None

    def _faults(self) -> FaultConfig:
        # Lazy import: a clean plan never loads repro.faults.
        from repro.faults.injector import FaultConfig
        return FaultConfig(seed=self.fault_seed,
                           crash_times=self.crash_times,
                           pull_failure_rate=self.pull_failure_rate,
                           pull_stall_rate=self.pull_stall_rate,
                           pull_stall_seconds=self.pull_stall_seconds)

    # -- serialization -------------------------------------------------------

    def _pick(self, names: Iterable[str]) -> dict[str, Any]:
        """JSON-ready view of the named fields (tuples become lists)."""
        out = {}
        for name in names:
            value = getattr(self, name)
            out[name] = list(value) if type(value) is tuple else value
        return out

    def to_dict(self) -> dict[str, Any]:
        return self._pick(self.__dataclass_fields__)


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
    #: The attached injector when the plan injects faults.
    faults: FaultInjector | None = None
    #: The finalized report when a capacity ledger rode the replay
    #: (``capacity=`` given, or tracing enabled) — measured resident-bytes
    #: watermarks, NIC occupancy, leak scan and headroom vs the analytic
    #: bound.
    capacity: CapacityReport | None = None
    #: Tasks that failed terminally and left no result (the staging
    #: area's task ledger): ``results`` holds only the survivors.
    failed_tasks: int = 0

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
        self.machine = machine or _JAGUAR
        self.machine.validate_allocation(config.n_cores)
        self.cost = cost_model or jaguar_cost_model()
        self.workload = config.workload()
        self._timings: dict[AnalyticsVariant, AnalyticsTiming] = {}

    # -- closed-form per-timestep costs (Tables I & II, Fig. 6) -----------------

    def simulation_step_time(self) -> float:
        return self.cost.time("s3d.step", self.workload.block_cells)

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
        from repro.io.fpp import IOTimeModel

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
        per_step, slowest, step_time = self._staging_terms
        in_flight = min(math.ceil(slowest / (analysis_interval * step_time)),
                        n_buckets)
        return per_step * max(1, in_flight)

    @cached_property
    def _staging_terms(self) -> tuple[int, float, float]:
        """Bytes per analysed step, slowest hybrid task, step time."""
        rows = [self.analytics_timing(v) for v in HYBRID_VARIANTS]
        return (sum(row.movement_bytes for row in rows),
                max(row.movement_time + row.intransit_time for row in rows),
                self.simulation_step_time())

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

    def run_schedule(self, plan: ReplayPlan | None = None, /, *,
                     probe_interval: float | None = None,
                     controller: PlacementController | None = None,
                     capacity: CapacityLedger | bool | None = None,
                     **fields: Any) -> ScheduleResult:
        """Replay ``plan`` (or ``ReplayPlan(**fields)``) on the DES.

        One grouped in-transit task per (hybrid analysis, analysed step)
        arrives when the simulation finishes that step; staging buckets
        pull the full-scale intermediate data and hold it for the modeled
        service time. Distinct timesteps land on distinct buckets — the
        paper's temporal multiplexing.

        With ``n_shards > 1`` the staging area is N independent
        tuple-space shards (:class:`DataSpaces` with ``n_shards``) with
        region keys DHT-routed across them; buckets are dealt round-robin
        over the shards and :attr:`ScheduleResult.shard_balance` carries
        the per-shard load report. A plan that injects faults attaches a
        deterministic :class:`~repro.faults.FaultInjector` to every
        shard; tasks that fail terminally are counted on
        :attr:`ScheduleResult.failed_tasks`.

        The keywords say how the replay is observed or driven, never what
        is replayed. With tracing enabled and ``probe_interval`` given, a
        :class:`~repro.obs.probes.ProbeSampler` rides the replay: the
        standard gauges (queue depth, NIC occupancy, bucket utilisation,
        RDMA live bytes) are sampled every ``probe_interval`` simulated
        seconds and :func:`~repro.obs.probes.default_slos` are checked
        live; the sampler is returned on :attr:`ScheduleResult.probes`.

        With ``controller`` (a :class:`repro.control.PlacementController`,
        one shard only) the timeline pauses at the end of every policy
        window for the controller: analyses it has pulled in-situ are
        charged on the simulation timeline instead of being submitted
        in-transit, and the staging pool is elastically resized through
        :meth:`DataSpaces.scale_to`. Both runs lay their timeline with one
        walk, so a controller that takes no decisions reproduces the
        static replay bit-for-bit.

        ``capacity`` controls the byte-accurate capacity ledger
        (:class:`repro.obs.capacity.CapacityLedger`): ``True`` (or a
        prebuilt ledger) attaches one to every transport of the run,
        ``False`` disables it, and the default ``None`` attaches one iff
        tracing is enabled — an untraced replay pays only the ``is
        None`` checks in the transport hot paths. The finalized report
        is returned on :attr:`ScheduleResult.capacity`.
        """
        if plan is None:
            plan = ReplayPlan(**fields)
        elif fields:
            raise TypeError(f"run_schedule() takes a plan or its fields, "
                            f"not both: got {sorted(fields)}")
        if controller is not None and plan.n_shards != 1:
            raise ValueError("controller= requires n_shards == 1")
        n_steps, analysis_interval = plan.n_steps, plan.analysis_interval
        analyses = plan.variants()
        n_buckets = plan.buckets(self.config)

        engine = Engine()
        ds = DataSpaces(engine, DartTransport(engine, self.machine.network),
                        n_servers=max(1, self.config.n_service_cores),
                        cost_model=self._service_cost_model(),
                        lease_timeout=plan.lease_timeout,
                        bucket_restart_delay=plan.bucket_restart_delay,
                        max_bucket_restarts=plan.max_bucket_restarts,
                        n_shards=plan.n_shards)
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
        if plan.has_faults():
            # Lazy import: repro.faults depends on the staging layer.
            from repro.faults.injector import FaultInjector
            injector = FaultInjector(engine, plan.fault_config()).attach(ds)

        sampler: ProbeSampler | None = None
        if probe_interval is not None and get_tracer().enabled:
            sampler = ProbeSampler(probe_interval, ds.probe_map(),
                                   slos=default_slos(n_buckets))
            engine.attach_probe(sampler)

        sim_dt = self.simulation_step_time()
        # Each analysed step charges the in-situ stages on the sim cores;
        # submissions happen at the end of the stretched step.
        insitu_total = self._insitu_total(analyses)
        # What every analysed step submits, built once per replay: the
        # per-task loop then neither hashes the enum nor reads its fields.
        table = [(variant, variant.value,
                  self.analytics_timing(variant).movement_bytes,
                  f"service.{variant.name}") for variant in analyses]
        tracer = get_tracer()
        insitu_results: list[TaskResult] = []

        def submit(step: int, src: SpanRecord | None,
                   placed_insitu: tuple[AnalyticsVariant, ...]) -> None:
            # Anchor each submitted task's causal flow at the producing
            # in-situ span (sim span if no in-situ work).
            ds.flow_src = src
            source = f"sim-agg-{step}"
            try:
                for variant, name, nbytes, cost_op in table:
                    if placed_insitu and variant in placed_insitu:
                        continue
                    ds.submit_insitu_result(
                        analysis=name,
                        timestep=step,
                        source_node=source,
                        payload=None,
                        nbytes=nbytes,
                        cost_op=cost_op,
                        cost_elements=1,
                    )
            finally:
                ds.flow_src = None

        if controller is not None:
            controller.begin_run(experiment=self, ds=ds, plan=plan)

        def lay() -> Iterator[None]:
            # The replay's one timeline, laid ahead of the DES. A controller
            # pauses it at each window's end until the DES gets there; its
            # placement then shapes the steps laid after.
            t = 0.0
            placed: tuple[AnalyticsVariant, ...] = ()
            analysed = 0
            for step in range(n_steps):
                sim_span = None
                if tracer.enabled:
                    # Model-time simulation timeline (the sim cores' lane).
                    sim_span = tracer.add_span("sim.step", lane="sim-timeline",
                                               t_start=t, t_end=t + sim_dt,
                                               category="sim",
                                               stage="simulation", step=step)
                t += sim_dt
                if step % analysis_interval:
                    continue
                t_in0 = t
                t += insitu_total
                # Analyses pulled in-situ run their completion stage on the
                # simulation timeline, in placement order: no movement, no
                # queue, but the full in-transit charge stretches the step.
                for variant in placed:
                    seg0 = t
                    t += self.analytics_timing(variant).intransit_time
                    insitu_results.append(TaskResult(
                        task_id=f"{variant.value}/t{step}/insitu",
                        analysis=variant.value, timestep=step,
                        bucket="sim-insitu", value=None,
                        enqueue_time=seg0, assign_time=seg0,
                        pull_done_time=seg0, finish_time=t, bytes_pulled=0))
                src_span = sim_span
                if tracer.enabled and t > t_in0:
                    src_span = tracer.add_span("insitu", lane="sim-timeline",
                                               t_start=t_in0, t_end=t,
                                               category="insitu",
                                               stage="insitu", step=step)
                engine.call_at(t, partial(submit, step, src_span, placed))
                if controller is None:
                    continue
                controller.note_step(sim_seconds=sim_dt,
                                     insitu_seconds=t - t_in0)
                analysed += 1
                if analysed % controller.policy.window == 0:
                    engine.call_at(t, partial(next, walk, None))
                    yield
                    controller.on_window(t)
                    placed = tuple(controller.insitu_placed())
            # Shutdown only after the last submission has been issued (the
            # drain logic then waits for outstanding tasks to finish).
            engine.call_at(t, ds.shutdown_buckets)

        walk = lay()
        next(walk, None)
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
                                        if ledger is not None else None),
                              failed_tasks=ds.task_accounting()["failed"])

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

    def expected_stage_totals(self, plan: ReplayPlan) -> dict[str, float]:
        """Model-side per-stage totals for a :meth:`run_schedule` replay
        of ``plan``.

        This is the reconciliation reference: the traced stage totals of a
        replay must add up to these figures (the ``movement`` wire spans
        and the ``intransit`` service spans split the combined
        movement+intransit charge between them, so they are compared as
        one bucket).
        """
        n_analysed = len(range(0, plan.n_steps, plan.analysis_interval))
        analyses = plan.variants()
        rows = [self.analytics_timing(v) for v in analyses]
        move_plus_intransit = sum(row.movement_time + row.intransit_time
                                  for row in rows)
        return {
            "simulation": plan.n_steps * self.simulation_step_time(),
            "insitu": n_analysed * self._insitu_total(analyses),
            "movement+intransit": n_analysed * move_plus_intransit,
        }

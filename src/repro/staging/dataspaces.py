"""The DataSpaces shared-space service.

Implements the "scalable, semantically specialized shared space
abstraction" of §IV: versioned puts over a set of service cores (keys
DHT-hashed via :class:`~repro.staging.hashing.ServiceRing`), plus the
in-transit workflow wiring — data-ready RPCs, the task queue, and bucket
management.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from typing import Any

from repro.costmodel.models import CostModel
from repro.des import Engine, ProcessHandle
from repro.obs.tracer import get_tracer
from repro.staging.buckets import StagingBucket, release_regions
from repro.staging.descriptors import TaskDescriptor, TaskResult
from repro.staging.hashing import ServiceRing
from repro.staging.scheduler import AssignmentRecord, TaskScheduler
from repro.transport.dart import DartTransport
from repro.transport.messages import DataDescriptor


@dataclass
class ShardLoad:
    """Traffic landed on one shard."""

    shard: int
    tasks: int = 0
    bytes: int = 0
    rpcs: int = 0
    #: Buckets dealt to the shard at spawn (crash replacements not counted).
    buckets: int = 0


@dataclass
class ShardBalanceReport:
    """How evenly the DHT spread staging traffic across shards."""

    loads: list[ShardLoad]
    virtual_nodes: int = 0

    @property
    def n_shards(self) -> int:
        return len(self.loads)

    def imbalance(self, attr: str = "tasks") -> float:
        """Max-over-mean ratio of per-shard ``attr`` (1.0 = perfectly even)."""
        values = [getattr(load, attr) for load in self.loads]
        total = sum(values)
        if not values or total == 0:
            return 1.0
        return max(values) / (total / len(values))

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_shards": self.n_shards,
            "virtual_nodes": self.virtual_nodes,
            "imbalance_tasks": self.imbalance("tasks"),
            "imbalance_bytes": self.imbalance("bytes"),
            "loads": [asdict(load) for load in self.loads],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ShardBalanceReport":
        return cls(loads=[ShardLoad(**x) for x in d.get("loads", [])],
                   virtual_nodes=d.get("virtual_nodes", 0))

    @classmethod
    def merge(cls, reports: Sequence["ShardBalanceReport"]
              ) -> "ShardBalanceReport":
        """Aggregate several reports by shard index (service-level view
        over many jobs; jobs with fewer shards fold into the low indices)."""
        n = max((r.n_shards for r in reports), default=0)
        loads = [ShardLoad(shard=i) for i in range(n)]
        for report in reports:
            for load in report.loads:
                agg = loads[load.shard]
                agg.tasks += load.tasks
                agg.bytes += load.bytes
                agg.rpcs += load.rpcs
                agg.buckets = max(agg.buckets, load.buckets)
        return cls(loads=loads, virtual_nodes=max(
            (r.virtual_nodes for r in reports), default=0))


class DataSpaces:
    """Shared space + in-transit workflow coordinator.

    Fault tolerance knobs (all off by default, preserving the happy-path
    configuration):

    * ``lease_timeout`` — per-assignment leases in the scheduler; a task
      held by a crashed bucket is requeued within one lease period;
    * ``bucket_restart_delay`` / ``max_bucket_restarts`` — the bucket
      supervisor: crashed staging cores are replaced after the delay,
      keeping the pool at its configured size, up to the restart budget.

    When the staging area is *fully* down (every bucket dead, no restart
    pending), queued and future tasks run in-situ at the task's modeled
    cost instead of hanging.

    With ``n_shards > 1`` this instance is shard 0 of N independent
    shards — the paper's DHT applied one level up. It builds shards
    1…N-1 on their own transports over ``transport``'s network and routes
    each in-situ result by its region key; the aggregate reads cover
    every shard, and faults stay within one.
    """

    def __init__(self, engine: Engine, transport: DartTransport,
                 n_servers: int = 4, cost_model: CostModel | None = None,
                 lease_timeout: float | None = None,
                 bucket_restart_delay: float | None = None,
                 max_bucket_restarts: int = 0,
                 name: str | None = None, n_shards: int = 1) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > 1:
            # Each shard hashes its keyspace over its slice of the servers.
            n_servers = max(1, n_servers // n_shards)
            name = "shard0"
        if max_bucket_restarts < 0:
            raise ValueError(
                f"max_bucket_restarts must be >= 0, got {max_bucket_restarts}")
        if bucket_restart_delay is not None and bucket_restart_delay < 0:
            raise ValueError(f"bucket_restart_delay must be >= 0, got "
                             f"{bucket_restart_delay}")
        self.engine = engine
        self.transport = transport
        self.ring = ServiceRing(n_servers)
        self.cost_model = cost_model
        # A sharded area names each shard so per-shard scheduler events
        # stay separable in trace exports.
        self.scheduler = TaskScheduler(
            engine, lease_timeout=lease_timeout,
            lane=f"scheduler[{name}]" if name else "scheduler")
        self.buckets: list[StagingBucket] = []
        self._store: dict[tuple[str, int], list[Any]] = {}
        self._task_ids = itertools.count()
        self._rpc_counts = [0] * n_servers
        self._rpc_keys: list[str] = []  # not yet hashed onto the ring
        self._outstanding = 0
        self._drain_events: list[Any] = []
        # -- fault tolerance state --
        self.bucket_restart_delay = bucket_restart_delay
        self.max_bucket_restarts = max_bucket_restarts
        self.degraded = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.restarts_used = 0
        self._pending_restarts = 0
        self._restart_ids = itertools.count(1)
        # -- elastic pool (scale-to-target supervisor) --
        #: When set (via :meth:`scale_to`), the supervisor keeps the pool
        #: reconciled to this size instead of the restart-budget policy:
        #: crashed workers are respawned toward the target (after
        #: ``bucket_restart_delay``, immediately if None) and surplus
        #: workers are retired through the scheduler's lease hand-off.
        self.pool_target: int | None = None
        #: Workers respawned by the scale-to-target supervisor (distinct
        #: from the budgeted ``restarts_used``).
        self.pool_respawns = 0
        self._grow_ids = itertools.count(1)
        self._shutting_down = False
        self._bucket_procs: dict[str, ProcessHandle] = {}
        #: Results produced by the degraded-mode in-situ fallback.
        self.fallback_results: list[TaskResult] = []
        #: Task ids that failed terminally in the fallback path.
        self.fallback_failures: list[str] = []
        self._tracer = get_tracer()
        #: Producer span anchoring the *next* submitted task's causal
        #: flow (the driver sets this around each in-situ hand-off).
        self.flow_src: Any | None = None
        #: A pre-created flow to attach to the next submitted task (set
        #: by drivers that start the flow at the in-situ stage); consumed
        #: by one submit.
        self.next_flow: Any | None = None
        # -- shards 1..N-1: kept apart from ``self`` (see :attr:`shards`) --
        self._peers = [
            DataSpaces(engine, DartTransport(engine, transport.network),
                       n_servers, cost_model, lease_timeout,
                       bucket_restart_delay, max_bucket_restarts, f"shard{i}")
            for i in range(1, n_shards)]
        self._router = ServiceRing(n_shards) if n_shards > 1 else None
        self._routed_bytes = [0] * n_shards
        self._dealt_buckets = [0] * n_shards

    @property
    def shards(self) -> list["DataSpaces"]:
        """Shard 0 (this instance) then its peers, in shard order. Built
        on read: a list holding ``self`` would be a reference cycle."""
        return [self, *self._peers]

    # -- tuple space --------------------------------------------------------

    def _rpc(self, key: str) -> None:
        self._rpc_keys.append(key)

    @property
    def server_rpc_counts(self) -> list[int]:
        """RPCs handled per service core (load-balance instrumentation),
        folded on read: a read hashes the keys filed since the last one
        onto the ring, so the counts equal counting each RPC as it came."""
        for key in self._rpc_keys:
            self._rpc_counts[self.ring.server_for(key)] += 1
        self._rpc_keys.clear()
        return list(self._rpc_counts)

    @property
    def rpc_total(self) -> int:
        """RPCs filed so far: ``sum(server_rpc_counts)``, with no key hashed."""
        return sum(self._rpc_counts) + len(self._rpc_keys)

    def put(self, name: str, version: int, data: Any) -> None:
        """Insert an object into shard 0's space: one RPC to the service
        core that owns ``name@version``."""
        self._rpc(f"{name}@{version}")
        self._store.setdefault((name, version), []).append(data)

    # -- workflow: in-situ side ------------------------------------------------

    def _task_flow(self, task: TaskDescriptor) -> None:
        """Attach a causal flow to ``task``; called only when traced.

        A driver-provided :attr:`next_flow` is consumed first (it starts
        at the in-situ stage's span); otherwise a fresh flow is
        begun, anchored at :attr:`flow_src` when the driver set one.
        """
        tracer = self._tracer
        flow = self.next_flow
        if flow is not None:
            self.next_flow = None
        else:
            flow = tracer.flow_begin("task", src_span=self.flow_src)
        flow.tags.setdefault("task_id", task.task_id)
        flow.tags.setdefault("analysis", task.analysis)
        flow.tags.setdefault("step", task.timestep)
        task.flow = flow

    def submit_insitu_result(self, analysis: str, timestep: int,
                             source_node: str, payload: Any,
                             nbytes: int | None = None,
                             compute: Callable[[list[Any]], Any] | None = None,
                             cost_op: str | None = None,
                             cost_elements: int = 0,
                             meta: dict[str, Any] | None = None,
                             max_retries: int = 0) -> DataDescriptor:
        """Register an in-situ result and raise the *data-ready* event.

        Registers the payload for RDMA pulls, then sends the descriptor to
        the scheduler as a short message (one task per call). For analyses
        whose in-transit stage consumes *many* regions in one task (e.g.
        the serial merge-tree glue), use :meth:`submit_grouped_result`.
        With several shards the shard owning the region key takes it.
        """
        if self._peers:
            shard = self._router.server_for(f"{analysis}/t{timestep}")
            self._routed_bytes[shard] += int(nbytes or 0)
            if shard:
                peer = self._peers[shard - 1]
                peer.flow_src = self.flow_src
                return peer.submit_insitu_result(
                    analysis, timestep, source_node, payload, nbytes,
                    compute, cost_op, cost_elements, meta, max_retries)
        # Hot path: records are filled positionally (DESIGN.md §4).
        desc = self.transport.register(
            source_node, payload,
            {"analysis": analysis, "timestep": timestep, **(meta or {})},
            nbytes)
        task = TaskDescriptor(
            f"{analysis}/t{timestep}/#{next(self._task_ids)}", analysis,
            timestep, [desc], compute, cost_op, cost_elements, None, None,
            0.0, max_retries)
        self._data_ready(task, desc.descriptor_bytes())
        return desc

    def submit_grouped_result(self, analysis: str, timestep: int,
                              descriptors: Sequence[DataDescriptor],
                              compute: Callable[[list[Any]], Any] | None = None,
                              cost_op: str | None = None,
                              cost_elements: int = 0,
                              stream_compute: Callable[[Any, Any], Any] | None = None,
                              stream_finalize: Callable[[Any], Any] | None = None,
                              stream_cost_per_payload: float = 0.0,
                              max_retries: int = 0) -> TaskDescriptor:
        """Create one in-transit task consuming many registered regions.

        Pass ``compute`` for the buffered mode (all payloads pulled, then
        processed) or ``stream_compute``/``stream_finalize`` for the
        streaming mode (each payload processed on arrival).
        """
        if not descriptors:
            raise ValueError("grouped task needs at least one descriptor")
        task = TaskDescriptor(
            task_id=f"{analysis}/t{timestep}/#{next(self._task_ids)}",
            analysis=analysis, timestep=timestep, data=list(descriptors),
            compute=compute, cost_op=cost_op, cost_elements=cost_elements,
            stream_compute=stream_compute, stream_finalize=stream_finalize,
            stream_cost_per_payload=stream_cost_per_payload,
            max_retries=max_retries,
        )
        self._data_ready(task, 512)
        return task

    def _data_ready(self, task: TaskDescriptor, message_bytes: int) -> None:
        """Account one submitted task and send its descriptor to the
        scheduler as a short message (the *data-ready* RPC)."""
        if self._tracer.enabled:
            self._task_flow(task)
        self._rpc_keys.append(task.task_id)  # what _rpc does, minus the call
        self._outstanding += 1
        self.submitted += 1
        self.transport.notify("scheduler", task, message_bytes,
                              self.scheduler.data_ready)

    # -- workflow: staging side ---------------------------------------------------

    def spawn_buckets(self, names: Sequence[str]) -> list[StagingBucket]:
        """Create and start one bucket process per staging core name,
        dealt round-robin over the shards (shard ``i`` gets
        ``names[i::n_shards]``); a shard with no bucket would never drain."""
        shards = self.shards
        if len(names) < len(shards):
            raise ValueError(
                f"need at least one bucket per shard: got {len(names)} "
                f"buckets for {len(shards)} shards")
        for i, shard in enumerate(shards):
            dealt = names[i::len(shards)]
            self._dealt_buckets[i] = len(dealt)
            for name in dealt:
                shard._spawn_bucket(name)
        return [b for shard in shards for b in shard.buckets]

    def _spawn_bucket(self, name: str) -> StagingBucket:
        bucket = StagingBucket(name, self.engine, self.scheduler,
                               self.transport, self.cost_model,
                               on_task_done=self._on_task_done,
                               on_death=self._on_bucket_death)
        self.buckets.append(bucket)
        self._bucket_procs[name] = self.engine.process(
            bucket.run(), name=f"bucket:{name}")
        return bucket

    def live_buckets(self) -> int:
        """Number of shard 0's staging cores currently alive (retired
        ones left)."""
        return sum(1 for b in self.buckets if not b.dead and not b.retired)

    def committed_buckets(self) -> int:
        """Pool size shard 0's supervisor is committed to: live workers
        minus pending retirements, plus respawns already scheduled."""
        alive = sum(1 for b in self.buckets
                    if not b.dead and not b.retired and not b.retiring)
        return alive + self._pending_restarts

    def scale_to(self, target: int) -> dict[str, list[str]]:
        """Elastically resize shard 0's bucket pool to ``target`` workers.

        Growth spawns fresh workers immediately (DES time); shrinkage
        retires surplus workers, newest first, through
        :meth:`TaskScheduler.retire_bucket` — an idle worker leaves at
        once, a busy one finishes its current task (its lease is handed
        back via the normal ``task_done`` path) and then exits. Setting a
        target also switches the crash supervisor from the restart-budget
        policy to reconcile-to-target (see :meth:`_on_bucket_death`).

        Returns ``{"spawned": [...], "retiring": [...]}`` worker names.
        """
        if target < 1:
            raise ValueError(f"pool target must be >= 1, got {target}")
        if self._shutting_down or self.degraded:
            raise RuntimeError(
                "cannot scale a draining or degraded staging area")
        self.pool_target = target
        spawned: list[str] = []
        retiring: list[str] = []
        alive = [b for b in self.buckets
                 if not b.dead and not b.retired and not b.retiring]
        committed = len(alive) + self._pending_restarts
        while committed < target:
            name = f"staging+{next(self._grow_ids)}"
            self._spawn_bucket(name)
            spawned.append(name)
            committed += 1
        surplus = committed - target
        for bucket in reversed(alive):
            if surplus == 0:
                break
            bucket.retiring = True
            self.scheduler.retire_bucket(bucket.name)
            retiring.append(bucket.name)
            surplus -= 1
        if spawned or retiring:
            self._tracer.counter("dataspaces.pool_scalings")
            self._tracer.instant("dataspaces.scale_to", lane="dataspaces",
                                 target=target, spawned=len(spawned),
                                 retiring=len(retiring))
        return {"spawned": spawned, "retiring": retiring}

    def crash_bucket(self, name: str, cause: Any = "injected crash") -> None:
        """Kill a staging core: its worker process sees an Interrupt.

        Recovery of any in-flight task relies on scheduler leases
        (``lease_timeout``); the supervisor replaces the bucket if a
        restart budget is configured, or degrades to in-situ execution
        when the whole staging area is down.
        """
        proc = next((shard._bucket_procs[name] for shard in self.shards
                     if name in shard._bucket_procs), None)
        if proc is None:
            raise KeyError(f"no bucket named {name!r}")
        if proc.finished:
            return  # already dead or shut down
        proc.interrupt(cause)

    def _on_bucket_death(self, bucket: StagingBucket, cause: Any) -> None:
        self.scheduler.mark_bucket_dead(bucket.name)
        self._tracer.counter("dataspaces.bucket_deaths")
        if self._shutting_down or self.degraded:
            return
        if self.pool_target is not None:
            # Scale-to-target mode: reconcile toward the target instead of
            # spending the restart budget; the controller's memory bound
            # (not ``max_bucket_restarts``) limits the pool.
            if self.committed_buckets() < self.pool_target:
                self.pool_respawns += 1
                self._respawn(bucket, f"staging+{next(self._grow_ids)}",
                              "pool_respawn")
        elif (self.bucket_restart_delay is not None
                and self.restarts_used < self.max_bucket_restarts):
            self.restarts_used += 1
            self._respawn(bucket,
                          f"{bucket.name}~r{next(self._restart_ids)}",
                          "bucket_restart")
        elif self.live_buckets() == 0 and self._pending_restarts == 0:
            self._enter_degraded_mode()

    def _respawn(self, dead: StagingBucket, replacement: str,
                 event: str) -> None:
        """Replace ``dead`` by a worker named ``replacement`` after
        ``bucket_restart_delay`` (at once when None); whichever supervisor
        policy decided to has counted it and chosen the name."""
        self._pending_restarts += 1
        self._tracer.counter(f"dataspaces.{event}s")
        self._tracer.instant(f"dataspaces.{event}", lane="dataspaces",
                             dead=dead.name, replacement=replacement)

        def spawn() -> None:
            self._pending_restarts -= 1
            if not self._shutting_down and not self.degraded:
                self._spawn_bucket(replacement)

        self.engine.call_at(
            self.engine.now + (self.bucket_restart_delay or 0.0), spawn)

    # -- degraded mode: staging fully down -----------------------------------

    def _enter_degraded_mode(self) -> None:
        """Staging area fully down: run in-transit tasks in-situ.

        Queued tasks are stolen from the scheduler and every future
        data-ready (including lease reassignments from the dead pool) is
        routed to the fallback, so ``drained()`` still fires and no task
        is silently lost.
        """
        self.degraded = True
        self._tracer.counter("dataspaces.degraded")
        self._tracer.instant("dataspaces.degraded", lane="dataspaces")
        self.scheduler.task_sink = self._fallback_submit
        for task in self.scheduler.steal_queue():
            self._fallback_submit(task)

    def _fallback_submit(self, task: TaskDescriptor) -> None:
        if task.task_id == StagingBucket.SHUTDOWN.task_id:
            return  # no buckets left to stop
        self.engine.process(self._run_insitu_fallback(task),
                            name=f"fallback:{task.task_id}")

    def _run_insitu_fallback(self, task: TaskDescriptor):
        """DES process: execute one task in-situ (no staging, no RDMA).

        The data never moves — the computation runs where it was produced,
        charged at the task's ``cost_op``.
        """
        start = self.engine.now
        try:
            payloads = [self.transport.registry.lookup(d.region_id).payload
                        for d in task.data]
            if task.stream_compute is not None:
                state: Any = None
                for payload in payloads:
                    state = task.stream_compute(state, payload)
                    if task.stream_cost_per_payload:
                        yield self.engine.timeout(task.stream_cost_per_payload)
                value = (task.stream_finalize(state)
                         if task.stream_finalize is not None else state)
            else:
                value = (task.compute(payloads)
                         if task.compute is not None else None)
            if task.cost_op is not None and self.cost_model is not None:
                yield self.engine.timeout(
                    self.cost_model.time(task.cost_op, task.cost_elements))
        except Exception as exc:  # noqa: BLE001 — fault isolation boundary
            release_regions(self.transport, task)
            self.fallback_failures.append(task.task_id)
            self._tracer.counter("dataspaces.fallback_failures")
            self._tracer.instant("dataspaces.fallback_failure",
                                 lane="dataspaces", task_id=task.task_id,
                                 error=repr(exc))
            self._on_task_done(None)
            return
        release_regions(self.transport, task)
        result = TaskResult(
            task_id=task.task_id, analysis=task.analysis,
            timestep=task.timestep, bucket="insitu-fallback", value=value,
            enqueue_time=start, assign_time=start, pull_done_time=start,
            finish_time=self.engine.now, bytes_pulled=0,
        )
        self.fallback_results.append(result)
        if self._tracer.enabled:
            self._tracer.counter("dataspaces.fallback_tasks")
        self._on_task_done(result)

    # -- drain accounting -----------------------------------------------------

    def _on_task_done(self, result: Any) -> None:
        if result is None:
            self.failed += 1
        else:
            self.completed += 1
        self._outstanding -= 1
        if self._outstanding == 0:
            events, self._drain_events = self._drain_events, []
            for ev in events:
                ev.succeed(None)

    def task_accounting(self) -> dict[str, int]:
        """Exact task ledger over every shard: each submitted task is
        completed, failed, or still outstanding — nothing is silently
        lost."""
        shards = self.shards
        return {
            "submitted": sum(s.submitted for s in shards),
            "completed": sum(s.completed for s in shards),
            "failed": sum(s.failed for s in shards),
            "outstanding": sum(s._outstanding for s in shards),
        }

    def failed_task_ids(self) -> list[str]:
        """Ids of terminally failed tasks (buckets + fallback), by shard."""
        return [tid for s in self.shards for tid in itertools.chain(
            *(b.terminal_failures for b in s.buckets), s.fallback_failures)]

    def drained(self):
        """Event triggering once every task submitted to shard 0 has
        completed."""
        ev = self.engine.event()
        if self._outstanding == 0:
            ev.succeed(None)
        else:
            self._drain_events.append(ev)
        return ev

    def shutdown_buckets(self) -> None:
        """Queue one shutdown sentinel per bucket once all work drains,
        through one drain-then-shutdown process per shard, in shard order.

        Safe to call immediately after the last submit: sentinels are only
        inserted after every outstanding task has completed, so they cannot
        overtake data-ready notifications still in flight.
        """
        for shard in self.shards:
            self.engine.process(shard._drain_then_shutdown(), name="shutdown")

    def _drain_then_shutdown(self):
        yield self.drained()
        self._shutting_down = True
        for bucket in self.buckets:
            # Retired workers already left; a retiring one takes the
            # retire sentinel at its next announcement instead.
            if not bucket.dead and not bucket.retired and not bucket.retiring:
                self.scheduler.data_ready(StagingBucket.SHUTDOWN)

    def all_results(self) -> list:
        """All completed in-transit task results (buckets + degraded-mode
        fallback) of every shard, by finish time."""
        out = [r for s in self.shards for r in itertools.chain(
            *(b.results for b in s.buckets), s.fallback_results)]
        out.sort(key=lambda r: r.finish_time)
        return out

    # -- what a replay reads off its staging area --------------------------------

    @property
    def transports(self) -> list[DartTransport]:
        """Every shard's transport, in shard order."""
        return [shard.transport for shard in self.shards]

    def assignment_records(self) -> list[AssignmentRecord]:
        """The schedulers' assignment logs (Fig. 5 event-trace
        validation), by assign time."""
        out = [rec for shard in self.shards
               for rec in shard.scheduler.assignments]
        out.sort(key=lambda rec: rec.assign_time)
        return out

    def balance_report(self) -> ShardBalanceReport | None:
        """Per-shard traffic — tasks and bytes routed, RPCs filed, buckets
        dealt at spawn: the DHT load-balance evidence; None for one shard.
        Reading it hashes no RPC key onto a shard's server ring."""
        if not self._peers:
            return None
        return ShardBalanceReport(
            loads=[ShardLoad(i, s.submitted, self._routed_bytes[i],
                             s.rpc_total, self._dealt_buckets[i])
                   for i, s in enumerate(self.shards)],
            virtual_nodes=self._router.virtual_nodes)

    def probe_map(self) -> dict[str, Callable[[], float]]:
        """The canonical gauge set for a live
        :class:`~repro.obs.probes.ProbeSampler`: scheduler queue depth,
        idle/busy buckets, NIC channel occupancy, and live RDMA-registered
        bytes. With several shards each gauge sums the shards', and
        ``shard.{i}.queue_depth`` reads shard ``i``'s queue."""
        maps = [shard._gauges() for shard in self.shards]
        if len(maps) == 1:
            return maps[0]
        probes: dict[str, Callable[[], float]] = {
            name: lambda fns=[m[name] for m in maps]: float(
                sum(fn() for fn in fns))
            for name in maps[0]}
        for i, m in enumerate(maps):
            probes[f"shard.{i}.queue_depth"] = m["sched.queue_depth"]
        return probes

    def _gauges(self) -> dict[str, Callable[[], float]]:
        """This shard's own gauges."""
        sched, transport = self.scheduler, self.transport
        return {
            "sched.queue_depth": lambda: float(sched.pending_tasks),
            "sched.idle_buckets": lambda: float(sched.idle_buckets),
            "bucket.busy": lambda: self.live_buckets() - sched.idle_buckets,
            "nic.busy_channels": lambda: float(transport.nic_busy_channels()),
            "rdma.live_bytes": lambda: float(transport.registry.live_bytes()),
        }

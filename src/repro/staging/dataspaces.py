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
    """

    def __init__(self, engine: Engine, transport: DartTransport,
                 n_servers: int = 4, cost_model: CostModel | None = None,
                 lease_timeout: float | None = None,
                 bucket_restart_delay: float | None = None,
                 max_bucket_restarts: int = 0,
                 name: str | None = None) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
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
        #: Optional instance identity; sharded staging names each shard so
        #: per-shard scheduler events stay separable in trace exports.
        self.name = name
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
        """Insert an object into the space: one RPC to the service core
        that owns ``name@version``."""
        self._rpc(f"{name}@{version}")
        self._store.setdefault((name, version), []).append(data)

    # -- workflow: in-situ side ------------------------------------------------

    def _task_flow(self, task: TaskDescriptor) -> Any | None:
        """Attach a causal flow to ``task`` (None when tracing is off).

        A driver-provided :attr:`next_flow` is consumed first (it starts
        at the in-situ stage's span); otherwise a fresh flow is
        begun, anchored at :attr:`flow_src` when the driver set one.
        """
        tracer = self._tracer
        if not tracer.enabled:
            return None
        flow = self.next_flow
        if flow is not None:
            self.next_flow = None
        else:
            flow = tracer.flow_begin("task", src_span=self.flow_src)
        flow.tags.setdefault("task_id", task.task_id)
        flow.tags.setdefault("analysis", task.analysis)
        flow.tags.setdefault("step", task.timestep)
        task.flow = flow
        return flow

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
        """
        desc = self.transport.register(source_node, payload,
                                       meta={"analysis": analysis,
                                             "timestep": timestep,
                                             **(meta or {})},
                                       nbytes=nbytes)
        task = TaskDescriptor(
            task_id=f"{analysis}/t{timestep}/#{next(self._task_ids)}",
            analysis=analysis, timestep=timestep, data=[desc],
            compute=compute, cost_op=cost_op, cost_elements=cost_elements,
            max_retries=max_retries,
        )
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
        self._task_flow(task)
        self._rpc(task.task_id)
        self._outstanding += 1
        self.submitted += 1
        self.transport.notify("scheduler", task, nbytes=message_bytes,
                              on_delivery=self.scheduler.data_ready)

    # -- workflow: staging side ---------------------------------------------------

    def spawn_buckets(self, names: Sequence[str]) -> list[StagingBucket]:
        """Create and start one bucket process per staging core name."""
        for name in names:
            self._spawn_bucket(name)
        return self.buckets

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
        """Number of staging cores currently alive (retired ones left)."""
        return sum(1 for b in self.buckets if not b.dead and not b.retired)

    def committed_buckets(self) -> int:
        """Pool size the supervisor is committed to: live workers minus
        pending retirements, plus respawns already scheduled."""
        alive = sum(1 for b in self.buckets
                    if not b.dead and not b.retired and not b.retiring)
        return alive + self._pending_restarts

    def scale_to(self, target: int) -> dict[str, list[str]]:
        """Elastically resize the bucket pool to ``target`` workers.

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
        proc = self._bucket_procs.get(name)
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
        """Exact task ledger: every submitted task is completed, failed,
        or still outstanding — nothing is silently lost."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "outstanding": self._outstanding,
        }

    def failed_task_ids(self) -> list[str]:
        """Ids of terminally failed tasks (buckets + fallback)."""
        out = [tid for b in self.buckets for tid in b.terminal_failures]
        out.extend(self.fallback_failures)
        return out

    def drained(self):
        """Event triggering once every submitted task has completed."""
        ev = self.engine.event()
        if self._outstanding == 0:
            ev.succeed(None)
        else:
            self._drain_events.append(ev)
        return ev

    def shutdown_buckets(self) -> None:
        """Queue one shutdown sentinel per bucket once all work drains.

        Safe to call immediately after the last submit: sentinels are only
        inserted after every outstanding task has completed, so they cannot
        overtake data-ready notifications still in flight.
        """
        def drain_then_shutdown():
            yield self.drained()
            self._shutting_down = True
            for bucket in self.buckets:
                # Retired workers already left; a retiring one takes the
                # retire sentinel at its next announcement instead.
                if not bucket.dead and not bucket.retired and not bucket.retiring:
                    self.scheduler.data_ready(StagingBucket.SHUTDOWN)

        self.engine.process(drain_then_shutdown(), name="shutdown")

    def all_results(self) -> list:
        """All completed in-transit task results (buckets + degraded-mode
        fallback), by finish time."""
        out = [r for b in self.buckets for r in b.results]
        out.extend(self.fallback_results)
        out.sort(key=lambda r: r.finish_time)
        return out

    # -- what a replay reads off its staging area --------------------------------
    # (``ShardedDataSpaces`` answers the same four over its shards.)

    @property
    def transports(self) -> list[DartTransport]:
        return [self.transport]

    def assignment_records(self) -> list[AssignmentRecord]:
        """The scheduler's assignment log (Fig. 5 event-trace validation)."""
        return list(self.scheduler.assignments)

    def balance_report(self) -> None:
        """One space has no shards to balance."""
        return None

    def probe_map(self) -> dict[str, Callable[[], float]]:
        """The canonical gauge set for a live
        :class:`~repro.obs.probes.ProbeSampler`: scheduler queue depth,
        idle/busy buckets, NIC channel occupancy, and live RDMA-registered
        bytes."""
        sched, transport = self.scheduler, self.transport
        return {
            "sched.queue_depth": lambda: float(sched.pending_tasks),
            "sched.idle_buckets": lambda: float(sched.idle_buckets),
            "bucket.busy": lambda: self.live_buckets() - sched.idle_buckets,
            "nic.busy_channels": lambda: float(transport.nic_busy_channels()),
            "rdma.live_bytes": lambda: float(transport.registry.live_bytes()),
        }

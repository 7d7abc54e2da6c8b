"""Staging buckets: the in-transit worker loop (paper §IV, Fig. 5).

Each staging-area core runs one bucket process:

1. send a *bucket-ready* RPC to the scheduler;
2. receive an assigned task;
3. asynchronously pull every data region the task names (RDMA Get via
   DART);
4. execute the in-transit computation — the *real* Python computation runs
   so results are genuine, while the DES clock advances by the cost-model
   time for the full-scale run;
5. publish the result and loop.

The bucket stops when it receives the ``StagingBucket.SHUTDOWN`` sentinel
task, or *dies* when a fault injector interrupts its process (modelling a
staging-node crash).

Fault isolation: the entire task attempt — pulls (buffered or streaming
prefetch) and the computation — runs under one containment boundary. A
failing attempt never kills the worker loop; it either requeues the task
(retries remaining) or records a terminal failure and notifies
``on_task_done(None)`` so drain accounting stays exact. Only a DES
:class:`~repro.des.Interrupt` (injected crash) terminates the loop, via
the ``on_death`` callback.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.costmodel.models import CostModel
from repro.des import Engine, Interrupt
from repro.obs.flow import EDGE_SERVICE
from repro.obs.tracer import get_tracer
from repro.staging.descriptors import (RETIRE_TASK_ID, TaskDescriptor,
                                       TaskResult)
from repro.staging.scheduler import TaskScheduler
from repro.transport.dart import DartTransport


class _FailedPull:
    """Sentinel returned by a prefetch pull process that failed.

    Prefetch pulls run as independent DES processes; an exception escaping
    a process would crash the whole engine loop, so the process returns
    the error as a value and the consuming bucket re-raises it inside its
    own containment boundary.
    """

    __slots__ = ("region_id", "error")

    def __init__(self, region_id: str, error: Exception) -> None:
        self.region_id = region_id
        self.error = error


#: One short-message latency: what a bucket-ready RPC costs.
RPC_LATENCY = 2.0e-5


def release_regions(transport: DartTransport, task: TaskDescriptor) -> None:
    """Release whatever regions of ``task`` are still registered."""
    for desc in task.data:
        if desc.region_id in transport.registry:
            transport.release(desc)


class StagingBucket:
    """One in-transit worker on a named staging core."""

    SHUTDOWN = TaskDescriptor(task_id="__shutdown__", analysis="__shutdown__",
                              timestep=-1, data=[])

    def __init__(self, name: str, engine: Engine, scheduler: TaskScheduler,
                 transport: DartTransport, cost_model: CostModel | None = None,
                 on_task_done: "Any" = None,
                 on_death: "Any" = None) -> None:
        self.name = name
        self.engine = engine
        self.scheduler = scheduler
        self.transport = transport
        self.cost_model = cost_model
        self.on_task_done = on_task_done
        self.on_death = on_death
        self.results: list[TaskResult] = []
        #: (task_id, sim-time, exception repr) per failed task attempt.
        self.failures: list[tuple[str, float, str]] = []
        #: Task ids that exhausted their retry budget on this bucket.
        self.terminal_failures: list[str] = []
        self.busy_time: float = 0.0
        self.dead = False
        #: True once the bucket exited via a scale-down retire sentinel.
        #: Distinct from ``dead``: a retired worker left cleanly and must
        #: not be replaced by the supervisor or sent a shutdown sentinel.
        self.retired = False
        #: True while a scale-down retirement is pending (set by the
        #: elastic supervisor; the worker may still be finishing its
        #: current task). Excluded from the supervisor's committed pool.
        self.retiring = False
        #: The task currently being executed (None while idle).
        self.current_task: TaskDescriptor | None = None
        self._tracer = get_tracer()
        if self._tracer.enabled:
            # Per-task instruments are bound once: an update is one call.
            metrics = self._tracer.metrics
            self._count_tasks_done = metrics.counter("bucket.tasks_done").inc
            self._count_bytes_consumed = metrics.counter(
                "bucket.bytes_consumed").inc
            self._observe_task_time = metrics.histogram(
                "bucket.task_time").observe

    def run(self) -> Generator[Any, Any, None]:
        """The bucket's DES process body."""
        try:
            while True:
                # bucket-ready RPC costs one short-message latency.
                yield self.engine.timeout(RPC_LATENCY)
                task: TaskDescriptor = yield self.scheduler.bucket_ready(self.name)
                if task.task_id == StagingBucket.SHUTDOWN.task_id:
                    return
                if task.task_id == RETIRE_TASK_ID:
                    # Pool scale-down: exit cleanly; completed results
                    # stay owned by this (now retired) worker.
                    self.retired = True
                    self._tracer.counter("bucket.retirements")
                    self._tracer.instant("bucket.retire", lane=self.name)
                    return
                self.current_task = task
                tracer = self._tracer
                try:
                    if tracer.enabled:
                        span = tracer.begin(f"task:{task.task_id}",
                                            lane=self.name,
                                            category="task",
                                            analysis=task.analysis,
                                            step=task.timestep,
                                            attempt=task.attempts)
                        if task.flow is not None:
                            # Hand-off into the worker: the assign→pickup
                            # gap (bucket-ready RPC) charges to service.
                            tracer.flow_step(task.flow, EDGE_SERVICE,
                                             self.name,
                                             attempt=task.attempts)
                        try:
                            yield from self._execute(task)
                        finally:
                            tracer.end(span)
                    else:
                        yield from self._execute(task)
                finally:
                    self.current_task = None
        except Interrupt as exc:
            # Injected staging-node crash: the worker loop ends. Any task
            # in flight is recovered by its scheduler lease; the region
            # registrations it held stay live for the re-pull.
            self.dead = True
            if self._tracer.enabled:
                self._tracer.counter("bucket.crashes")
                self._tracer.instant("bucket.crash", lane=self.name,
                                     cause=repr(exc.cause))
            if self.on_death is not None:
                self.on_death(self, exc.cause)
            return
        finally:
            # A finished worker lets go of its supervisor: the callbacks
            # are bound to the space that owns this bucket, so keeping
            # them would make the whole replay one reference cycle.
            self.on_task_done = self.on_death = None

    def _execute(self, task: TaskDescriptor) -> Generator[Any, Any, None]:
        assign_t = self.engine.now
        enqueue_t = self._enqueue_time(task, assign_t)
        if task.cost_op is not None and self.cost_model is None:
            # Configuration error, not a task fault: surface it loudly.
            raise RuntimeError(
                f"task {task.task_id!r} charges op {task.cost_op!r} but "
                f"bucket {self.name!r} has no cost model"
            )
        # With retries or leases enabled, producers' regions stay
        # registered so a re-assigned bucket can pull them again
        # (released on success or terminal failure).
        retain = (task.max_retries > 0
                  or self.scheduler.lease_timeout is not None)
        try:
            if task.stream_compute is not None:
                value, pull_done_t = yield from self._run_streaming(task)
            else:
                # Buffered: pull every region, then compute over them all.
                payloads = []
                for desc in task.data:
                    payloads.append((yield from self.transport.pull(
                        desc, self.name, not retain, task.flow)))
                pull_done_t = self.engine.now
                value = (task.compute(payloads)
                         if task.compute is not None else None)
            if task.cost_op is not None:
                yield self.engine.timeout(
                    self.cost_model.time(task.cost_op, task.cost_elements))
        except Interrupt:
            raise  # injected crash — handled by run()
        except Exception as exc:  # noqa: BLE001 — fault isolation boundary
            self._handle_failure(task, exc)
            return
        if retain or task.stream_compute is not None:
            # A buffered pull without retention released its own region.
            release_regions(self.transport, task)
        finish_t = self.engine.now
        nbytes = task.total_bytes

        if self._tracer.enabled:
            # Compute charge (real compute + cost-model time) as an
            # explicit-time span nested inside the lane's task span.
            sp = self._tracer.add_span(f"intransit:{task.analysis}",
                                       lane=self.name,
                                       t_start=pull_done_t, t_end=finish_t,
                                       category="compute", stage="intransit",
                                       analysis=task.analysis,
                                       step=task.timestep,
                                       task_id=task.task_id)
            if task.flow is not None:
                self._tracer.flow_end(task.flow, EDGE_SERVICE, sp)
            self._count_tasks_done()
            self._count_bytes_consumed(nbytes)
            self._observe_task_time(finish_t - assign_t)

        self.busy_time += finish_t - assign_t
        result = TaskResult(task.task_id, task.analysis, task.timestep,
                            self.name, value, enqueue_t, assign_t,
                            pull_done_t, finish_t, nbytes)
        self.results.append(result)
        self.scheduler.task_done(task.task_id)
        if self.on_task_done is not None:
            self.on_task_done(result)

    # -- task attempt bodies -------------------------------------------------

    def _run_streaming(self, task: TaskDescriptor
                       ) -> Generator[Any, Any, tuple[Any, float]]:
        """Streaming mode (§VI): consume each payload the moment its pull
        completes, and *prefetch* the next pull while computing —
        in-transit compute overlaps the remaining transfers, so the task
        takes ~max(total pull, total compute) instead of their sum.

        Pulls never release regions in flight (they are released when the
        task settles), so a retry or lease reassignment can re-pull.
        On failure the in-flight prefetch is absorbed before re-raising so
        no pull process dangles past the attempt.
        """
        state: Any = None
        pending = (self.engine.process(self._pull_proc(task.data[0],
                                                       task.flow),
                                       name=f"{self.name}:pull0")
                   if task.data else None)
        try:
            for i in range(len(task.data)):
                payload = yield pending
                pending = (self.engine.process(
                    self._pull_proc(task.data[i + 1], task.flow),
                    name=f"{self.name}:pull{i + 1}")
                    if i + 1 < len(task.data) else None)
                if isinstance(payload, _FailedPull):
                    raise payload.error
                state = task.stream_compute(state, payload)
                if task.stream_cost_per_payload:
                    yield self.engine.timeout(task.stream_cost_per_payload)
            pull_done_t = self.engine.now
            value = (task.stream_finalize(state)
                     if task.stream_finalize is not None else state)
        except Interrupt:
            raise
        except Exception as exc:
            # Wait out the in-flight prefetch (its process must not outlive
            # the attempt), then re-raise into the containment boundary.
            if pending is not None and not pending.finished:
                yield pending
            raise exc
        return value, pull_done_t

    def _pull_proc(self, desc, flow=None) -> Generator[Any, Any, Any]:
        """Wrap one pull as a joinable DES process (streaming prefetch).

        Failures are returned as :class:`_FailedPull` values — an exception
        escaping a process would take down the engine loop.
        """
        try:
            payload = yield from self.transport.pull(desc, self.name,
                                                     release=False,
                                                     flow=flow)
        except Interrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — crossed back in consumer
            return _FailedPull(desc.region_id, exc)
        return payload

    # -- failure containment --------------------------------------------------

    def _handle_failure(self, task: TaskDescriptor, exc: Exception) -> None:
        """Record a failed attempt: requeue (retries left) or settle as a
        terminal failure. The worker loop stays alive either way."""
        task.attempts += 1
        self.failures.append((task.task_id, self.engine.now, repr(exc)))
        if self._tracer.enabled:
            self._tracer.counter("bucket.task_failures")
            self._tracer.instant("bucket.failure", lane=self.name,
                                 task_id=task.task_id, error=repr(exc),
                                 attempt=task.attempts)
        self.scheduler.task_done(task.task_id)  # revoke this attempt's lease
        if task.attempts <= task.max_retries:
            if self._tracer.enabled:
                self._tracer.counter("bucket.retries")
            self.scheduler.data_ready(task)
            return
        release_regions(self.transport, task)
        self.terminal_failures.append(task.task_id)
        if self._tracer.enabled:
            self._tracer.counter("bucket.terminal_failures")
        if self.on_task_done is not None:
            self.on_task_done(None)

    def _enqueue_time(self, task: TaskDescriptor, default: float) -> float:
        for rec in reversed(self.scheduler.assignments):
            if rec.task_id == task.task_id:
                return rec.data_ready_time
        return default

"""Pull-based FCFS task scheduler (paper §IV, *Scheduling and Coordination*).

Two event kinds drive scheduling, exactly as in Fig. 5:

* **data-ready** — an in-situ computation inserts a task descriptor; if a
  bucket is waiting it is assigned immediately, otherwise the task joins
  the FIFO task queue;
* **bucket-ready** — a staging bucket announces availability; if a task is
  queued it is assigned immediately, otherwise the bucket joins the FIFO
  free-bucket list.

Assignments are recorded for the Fig.-5 validation benchmark.

Fault tolerance (lease-based recovery): when the scheduler is built with a
``lease_timeout``, every assignment carries a lease. A healthy bucket
implicitly renews it; if the bucket is marked dead (crash detected by the
fault layer) the lease expires and the task is requeued FCFS onto a
surviving bucket. Buckets acknowledge completion/terminal failure/retry
via :meth:`TaskScheduler.task_done`, which revokes the live lease.
"""

from __future__ import annotations

from collections.abc import Callable
from collections import deque
from dataclasses import dataclass

from repro.des import Engine, EventHandle
from repro.obs.tracer import get_tracer
from repro.staging.descriptors import (SHUTDOWN_TASK_ID, TaskDescriptor,
                                       retire_sentinel)


@dataclass
class ReassignmentRecord:
    """One lease-expiry recovery: a task pulled back from a dead bucket."""

    task_id: str
    dead_bucket: str
    assign_time: float
    requeue_time: float


@dataclass(slots=True)
class AssignmentRecord:
    """One task-to-bucket assignment, for event-trace validation."""

    task_id: str
    bucket: str
    data_ready_time: float
    bucket_ready_time: float
    assign_time: float


class TaskScheduler:
    """FCFS matching of tasks to buckets over the DES engine."""

    def __init__(self, engine: Engine,
                 lease_timeout: float | None = None,
                 lane: str = "scheduler") -> None:
        if lease_timeout is not None and lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be > 0 or None, got {lease_timeout}")
        self.engine = engine
        self.lease_timeout = lease_timeout
        #: Trace lane for this scheduler's instants and flow hops. Sharded
        #: staging (one scheduler per shard) sets a distinct lane per
        #: shard so their event streams stay separable in exports.
        self.lane = lane
        self._task_queue: deque[tuple[TaskDescriptor, float]] = deque()
        self._free_buckets: deque[tuple[str, EventHandle, float]] = deque()
        self.assignments: list[AssignmentRecord] = []
        #: Lease-expiry recoveries, in requeue order.
        self.reassignments: list[ReassignmentRecord] = []
        #: (time, queue length) samples taken at every scheduling event.
        self.queue_trace: list[tuple[float, int]] = []
        self._leases: dict[str, EventHandle] = {}
        self._dead_buckets: set[str] = set()
        #: Buckets with a pending scale-down retirement: each receives a
        #: retire sentinel at its next bucket-ready announcement instead
        #: of a task (see :meth:`retire_bucket`).
        self._retiring: set[str] = set()
        #: Degraded-mode redirect: when set, data-ready tasks bypass the
        #: queue and are handed to this callable (the staging area is gone
        #: and DataSpaces runs tasks in-situ instead).
        self.task_sink: Callable[[TaskDescriptor], None] | None = None
        self._tracer = get_tracer()

    # -- events -------------------------------------------------------------

    def data_ready(self, task: TaskDescriptor) -> None:
        """An in-situ stage published a task (descriptor insert RPC)."""
        now = self.engine.now
        if self._tracer.enabled:
            self._tracer.step("sched.data_ready", self.lane, task,
                              task_id=task.task_id, analysis=task.analysis,
                              step=task.timestep)
        if self.task_sink is not None:
            self.task_sink(task)
            self._sample()
            return
        while self._free_buckets:
            bucket, ev, ready_t = self._free_buckets.popleft()
            if bucket in self._dead_buckets:
                continue  # drop the corpse's pending bucket-ready entry
            self._assign(task, now, bucket, ev, ready_t)
            break
        else:
            self._task_queue.append((task, now))
        self._sample()

    def bucket_ready(self, bucket: str) -> EventHandle:
        """A staging bucket announced availability; event triggers with its
        assigned :class:`TaskDescriptor`."""
        ev = EventHandle(self.engine)
        now = self.engine.now
        if self._tracer.enabled:
            self._tracer.step("sched.bucket_ready", self.lane, bucket=bucket)
        if bucket in self._retiring:
            # Scale-down hand-off: the bucket just finished (and lease-
            # released) its previous task; it gets the retire sentinel
            # instead of new work.
            self._retiring.discard(bucket)
            self._retire(bucket, ev)
            return ev
        if self._task_queue:
            task, ready_t = self._task_queue.popleft()
            self._assign(task, ready_t, bucket, ev, now)
        else:
            self._free_buckets.append((bucket, ev, now))
        self._sample()
        return ev

    def _assign(self, task: TaskDescriptor, data_t: float,
                bucket: str, ev: EventHandle, bucket_t: float) -> None:
        self.assignments.append(AssignmentRecord(
            task.task_id, bucket, data_t, bucket_t, self.engine.now))
        if self._tracer.enabled:
            self._tracer.step("sched.assign", self.lane, task,
                              task_id=task.task_id, bucket=bucket,
                              queue_wait=self.engine.now - data_t)
        ev.succeed(task)
        if (self.lease_timeout is not None
                and task.task_id != SHUTDOWN_TASK_ID):
            self._start_lease(task, bucket)

    # -- leases ---------------------------------------------------------------

    def _start_lease(self, task: TaskDescriptor, bucket: str) -> None:
        assign_t = self.engine.now
        # The lease fires with its own token, so the expiry check tells it
        # from a newer lease without holding the event that holds the
        # check (that would be a reference cycle outliving the run).
        token = object()
        lease = self.engine.timeout(self.lease_timeout, token)
        self._leases[task.task_id] = lease

        def on_expiry(fired: object) -> None:
            current = self._leases.get(task.task_id)
            if current is None or current.value is not fired:
                return  # superseded by a newer assignment
            del self._leases[task.task_id]
            if bucket in self._dead_buckets:
                self.reassignments.append(ReassignmentRecord(
                    task_id=task.task_id, dead_bucket=bucket,
                    assign_time=assign_t, requeue_time=self.engine.now))
                self._tracer.step("sched.lease_reassign", self.lane, task,
                                  task_id=task.task_id, reason="lease_expired",
                                  bucket=bucket,
                                  delay=self.engine.now - assign_t)
                self.data_ready(task)
            else:
                # The holder is alive and still working — renew the lease,
                # modelling the keepalive a healthy bucket sends.
                self._start_lease(task, bucket)

        lease.callbacks.append(on_expiry)

    def retire_bucket(self, bucket: str) -> bool:
        """Request a scale-down retirement of ``bucket``.

        An idle bucket (parked in the free list) is retired immediately:
        its pending bucket-ready event succeeds with the retire sentinel.
        A busy bucket is marked; it finishes its current task normally
        (the lease is handed back through the usual ``task_done`` path)
        and receives the sentinel at its next announcement. Returns True
        if the retirement was delivered immediately.
        """
        for i, (name, ev, _ready_t) in enumerate(self._free_buckets):
            if name == bucket:
                del self._free_buckets[i]
                self._retire(bucket, ev)
                return True
        self._retiring.add(bucket)
        return False

    def _retire(self, bucket: str, ev: EventHandle) -> None:
        self._tracer.step("sched.bucket_retire", self.lane, bucket=bucket)
        ev.succeed(retire_sentinel())
        self._sample()

    def task_done(self, task_id: str) -> None:
        """Acknowledge a task outcome (success, terminal failure, or a
        bucket-initiated retry requeue): revokes the live lease."""
        lease = self._leases.pop(task_id, None)
        if lease is not None:
            lease.cancel()

    def mark_bucket_dead(self, bucket: str) -> None:
        """Record a staging-core death; its free-list entry (if any) is
        skipped and any lease it holds will expire into a reassignment."""
        self._dead_buckets.add(bucket)
        self._tracer.step("sched.bucket_dead", self.lane, bucket=bucket)

    def steal_queue(self) -> list[TaskDescriptor]:
        """Drain and return every queued task (degraded-mode takeover)."""
        tasks = [task for task, _t in self._task_queue]
        self._task_queue.clear()
        self._sample()
        return tasks

    def _sample(self) -> None:
        self.queue_trace.append((self.engine.now, len(self._task_queue)))
        if self._tracer.enabled:
            self._tracer.step("sched.queue", queue_depth=len(self._task_queue),
                              idle_buckets=len(self._free_buckets))

    # -- introspection --------------------------------------------------------

    @property
    def pending_tasks(self) -> int:
        return len(self._task_queue)

    @property
    def idle_buckets(self) -> int:
        return len(self._free_buckets)

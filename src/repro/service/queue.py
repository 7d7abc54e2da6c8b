"""Job specs and the per-tenant fair-share job queue.

A job is one campaign/schedule-replay request: which paper allocation to
replay, how many steps/buckets/shards, and which analyses to run. Specs
are plain data (JSONL-serializable) so batches can be built with
``repro submit`` and drained with ``repro serve``.

The queue keeps one FIFO per tenant and serves tenants round-robin, so a
tenant flooding the service only queues behind itself — other tenants'
head-of-line jobs still get the next free worker. Admission is delegated
to the caller (the quota layer): the queue asks ``admit(job)`` per
candidate and skips (holding) or fails (permanent denial) accordingly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.core.runner import ExperimentConfig, ReplayPlan, ScheduleResult
from repro.machine.specs import jaguar_xk6, machine_fingerprint
from repro.service.cache import schedule_cache_key

#: Known machine allocations a job may request (Table I columns).
CONFIGS: dict[str, Callable[[], ExperimentConfig]] = {
    "paper_4896": ExperimentConfig.paper_4896,
    "paper_9440": ExperimentConfig.paper_9440,
}

#: Every allocation above is a slice of the paper's Jaguar XK6, the machine
#: :class:`~repro.core.runner.ScaledExperiment` replays on by default; its
#: fingerprint is the machine third of every schedule-cache key.
_MACHINE_FINGERPRINT = machine_fingerprint(jaguar_xk6())

# Every :class:`JobSpec` field belongs to exactly one of three groups: who
# asked and when (never part of a cache key), what is replayed, and where
# and under which faults it runs. A new field must join one of them.
IDENTITY_FIELDS = ("tenant", "name", "submit_at")
WORKLOAD_FIELDS = ("config", "n_steps", "analysis_interval", "analyses")
PLACEMENT_FIELDS = (
    "n_buckets", "n_shards", "lease_timeout", "bucket_restart_delay",
    "max_bucket_restarts", "fault_seed", "crash_times", "pull_failure_rate",
    "pull_stall_rate", "pull_stall_seconds")


class JobState(Enum):
    PENDING = "pending"     # submitted, not yet eligible (submit_at in future)
    QUEUED = "queued"       # in the queue, waiting for admission + a worker
    RUNNING = "running"     # held by a worker
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True, kw_only=True)
class JobSpec(ReplayPlan):
    """One campaign/schedule-replay request: a :class:`ReplayPlan` with a
    tenant, a name, the allocation it replays on and its arrival time
    (immutable, JSON-serializable as one flat object)."""

    tenant: str
    name: str
    config: str = "paper_4896"
    n_buckets: int = 8
    #: Service-clock time at which the job enters the queue.
    submit_at: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.config not in CONFIGS:
            raise ValueError(
                f"unknown config {self.config!r}; choose from "
                f"{sorted(CONFIGS)}")
        if self.submit_at < 0:
            raise ValueError("submit_at must be >= 0")

    def experiment_config(self) -> ExperimentConfig:
        return CONFIGS[self.config]()

    # -- serialization -------------------------------------------------------

    def workload_dict(self) -> dict[str, Any]:
        """The workload half of the schedule-cache key: what is replayed."""
        return self._pick(WORKLOAD_FIELDS)

    def placement_dict(self) -> dict[str, Any]:
        """The placement half of the schedule-cache key: where it runs."""
        return self._pick(PLACEMENT_FIELDS)

    def cache_key(self) -> str:
        """The schedule-cache key of this spec — its one definition."""
        return schedule_cache_key(_MACHINE_FINGERPRINT, self.workload_dict(),
                                  self.placement_dict())

    @classmethod
    def from_dict(cls, d: Any) -> "JobSpec":
        """The spec one JSON batch line describes (a flat object)."""
        if not isinstance(d, dict):
            raise ValueError(
                f"a job must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class Job:
    """One submitted job and its lifecycle bookkeeping (service clock)."""

    spec: JobSpec
    job_id: str
    state: JobState = JobState.PENDING
    submit_t: float | None = None
    start_t: float | None = None
    finish_t: float | None = None
    worker: str | None = None
    cache_hit: bool = False
    error: str | None = None
    result: ScheduleResult | None = None
    #: Times this job was passed over by admission control while queued.
    held: int = 0
    held_reasons: list[str] = field(default_factory=list)
    #: Resource demand, attached at first admission check.
    demand: Any | None = None
    tenant: str = field(init=False, repr=False)  # the spec's, copied once

    def __post_init__(self) -> None:
        self.tenant = self.spec.tenant

    @property
    def queue_wait(self) -> float | None:
        """Service-clock seconds between enqueue and dispatch."""
        if self.submit_t is None or self.start_t is None:
            return None
        return self.start_t - self.submit_t

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state.value,
            "submit_t": self.submit_t,
            "start_t": self.start_t,
            "finish_t": self.finish_t,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "held": self.held,
            "held_reasons": list(self.held_reasons),
            "queue_wait": self.queue_wait,
            "makespan": self.result.makespan if self.result else None,
            "failed_tasks": self.result.failed_tasks if self.result else None,
            "spec": self.spec.to_dict(),
        }


class JobQueue:
    """Per-tenant FIFOs served round-robin with admission control."""

    def __init__(self) -> None:
        self._queues: dict[str, deque[Job]] = {}
        self._rr: list[str] = []   # tenant service order (rotates)

    def push(self, job: Job) -> None:
        tenant = job.tenant
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._rr.append(tenant)
        job.state = JobState.QUEUED
        self._queues[tenant].append(job)

    def pending_for(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def pop_runnable(self, admit: Callable[[Job], Any]) -> Job | None:
        """Pop the next admissible job, serving tenants round-robin.

        ``admit(job)`` returns None to admit, or a
        :class:`~repro.service.quota.Denial`. A transient denial leaves
        the job at its tenant's head (counted on :attr:`Job.held`) and
        moves on to the next tenant; a permanent denial pops the job and
        marks it FAILED. After a successful pop the serving order rotates
        so no tenant monopolizes the workers.
        """
        for offset in range(len(self._rr)):
            tenant = self._rr[offset]
            queue = self._queues.get(tenant)
            while queue:
                job = queue[0]
                denial = admit(job)
                if denial is None:
                    queue.popleft()
                    # Rotate: tenants after the served one go first next time.
                    if offset != len(self._rr) - 1:
                        self._rr = (self._rr[offset + 1:]
                                    + self._rr[:offset + 1])
                    return job
                if getattr(denial, "permanent", False):
                    # Unsatisfiable job: fail it and let the tenant's
                    # next job move up (no point holding the line for a
                    # job that can never be admitted).
                    queue.popleft()
                    job.state = JobState.FAILED
                    job.error = denial.reason
                    continue
                job.held += 1
                job.held_reasons.append(denial.reason)
                break  # tenant blocked; try the next tenant
        return None

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
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.core.runner import ExperimentConfig, ScheduleResult
from repro.core.workload import AnalyticsVariant
from repro.machine.specs import jaguar_xk6
from repro.obs.perf import machine_fingerprint
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

_DEFAULT_ANALYSES = ("VIS_HYBRID", "TOPO_HYBRID", "STATS_HYBRID")

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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class JobSpec:
    """One campaign/schedule-replay request (immutable, JSON-serializable)."""

    tenant: str
    name: str
    config: str = "paper_4896"
    n_steps: int = 10
    n_buckets: int = 8
    analysis_interval: int = 1
    analyses: tuple[str, ...] = _DEFAULT_ANALYSES
    n_shards: int = 1
    #: Service-clock time at which the job enters the queue.
    submit_at: float = 0.0
    # Fault knobs forwarded to the replay (per shard).
    lease_timeout: float | None = None
    bucket_restart_delay: float | None = None
    max_bucket_restarts: int = 0
    # Fault *injection* plan for the replay (deterministic, seeded) —
    # lets a service batch carry chaos tenants next to clean ones.
    fault_seed: int = 0
    crash_times: tuple[float, ...] = ()
    pull_failure_rate: float = 0.0
    pull_stall_rate: float = 0.0
    pull_stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.config not in CONFIGS:
            raise ValueError(
                f"unknown config {self.config!r}; choose from "
                f"{sorted(CONFIGS)}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {self.n_buckets}")
        if self.analysis_interval < 1:
            raise ValueError("analysis_interval must be >= 1")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_buckets < self.n_shards:
            raise ValueError(
                f"need at least one bucket per shard: {self.n_buckets} "
                f"buckets < {self.n_shards} shards")
        if self.submit_at < 0:
            raise ValueError("submit_at must be >= 0")
        if not self.analyses:
            raise ValueError("need at least one analysis")
        valid = {v.name for v in AnalyticsVariant}
        for a in self.analyses:
            if a not in valid:
                raise ValueError(
                    f"unknown analysis {a!r}; choose from {sorted(valid)}")
        for rate in ("pull_failure_rate", "pull_stall_rate"):
            value = getattr(self, rate)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{rate} must be in [0, 1], got {value}")
        if self.pull_stall_seconds < 0:
            raise ValueError("pull_stall_seconds must be >= 0")
        if self.has_faults() and self.n_shards != 1:
            raise ValueError("fault injection requires n_shards == 1")
        if self.crash_times and self.lease_timeout is None:
            raise ValueError(
                "crash_times require lease_timeout (crash recovery runs "
                "through the lease/reassignment path)")
        # Normalize list -> tuple for hashing/equality after JSON loads.
        object.__setattr__(self, "analyses", tuple(self.analyses))
        object.__setattr__(self, "crash_times", tuple(self.crash_times))

    # -- derived -------------------------------------------------------------

    def variants(self) -> tuple[AnalyticsVariant, ...]:
        return tuple(AnalyticsVariant[a] for a in self.analyses)

    def experiment_config(self) -> ExperimentConfig:
        return CONFIGS[self.config]()

    def has_faults(self) -> bool:
        return bool(self.crash_times or self.pull_failure_rate
                    or self.pull_stall_rate)

    def fault_config(self) -> "FaultConfig | None":
        """The replay's injection plan, or None when the spec is clean."""
        if not self.has_faults():
            return None
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

    def to_dict(self) -> dict[str, Any]:
        return self._pick(self.__dataclass_fields__)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "JobSpec":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        data = dict(d)
        if "analyses" in data:
            data["analyses"] = tuple(data["analyses"])
        if "crash_times" in data:
            data["crash_times"] = tuple(data["crash_times"])
        return cls(**data)


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

    @property
    def tenant(self) -> str:
        return self.spec.tenant

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
            "spec": self.spec.to_dict(),
        }


class JobQueue:
    """Per-tenant FIFOs served round-robin with admission control."""

    def __init__(self) -> None:
        self._queues: dict[str, deque[Job]] = {}
        self._rr: list[str] = []   # tenant service order (rotates)
        self.pushed = 0
        self.popped = 0

    def push(self, job: Job) -> None:
        tenant = job.tenant
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._rr.append(tenant)
        job.state = JobState.QUEUED
        self._queues[tenant].append(job)
        self.pushed += 1

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def pending(self) -> list[Job]:
        """Queued jobs in tenant round-robin order (for reports)."""
        return [job for tenant in self._rr
                for job in self._queues.get(tenant, ())]

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
                    self.popped += 1
                    # Rotate: tenants after the served one go first next time.
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

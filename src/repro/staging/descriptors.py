"""In-transit task descriptors and results."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.transport.messages import DataDescriptor

#: Task id of the bucket shutdown sentinel (see ``StagingBucket.SHUTDOWN``).
#: The scheduler never leases it and the degraded-mode fallback ignores it.
SHUTDOWN_TASK_ID = "__shutdown__"

#: Task id of the bucket retirement sentinel (see ``StagingBucket.RETIRE``).
#: Handed by the scheduler to exactly one bucket when the pool scales
#: down: the bucket exits its worker loop cleanly (``retired``, not
#: ``dead``, so the supervisor does not replace it). Never leased.
RETIRE_TASK_ID = "__retire__"


@dataclass(slots=True)
class TaskDescriptor:
    """One in-transit task: pull these regions, run this computation.

    ``compute`` is the real in-transit stage (e.g. streaming merge-tree
    glue, serial render, statistics derive); it receives the list of pulled
    payloads in ``data`` order. ``cost_op``/``cost_elements`` tell the
    performance layer what to charge for the computation on the modeled
    machine (see :mod:`repro.costmodel`).
    """

    task_id: str
    analysis: str
    timestep: int
    data: list[DataDescriptor]
    compute: Callable[[list[Any]], Any] | None = None
    cost_op: str | None = None
    cost_elements: int = 0
    #: Streaming mode (§VI future work, implemented): process each pulled
    #: payload as soon as it arrives. ``stream_compute(state, payload)``
    #: returns the updated state (initial state ``None``);
    #: ``stream_finalize(state)`` produces the task value. Mutually
    #: exclusive with ``compute``.
    stream_compute: Callable[[Any, Any], Any] | None = None
    stream_finalize: Callable[[Any], Any] | None = None
    #: Modeled seconds of in-transit compute charged per streamed payload.
    stream_cost_per_payload: float = 0.0
    #: Tasks whose attempt fails (pull or compute) are requeued up to this
    #: many times through the FCFS scheduler; 0 = fail terminally on the
    #: first error. Note FCFS gives no placement guarantee — a retried
    #: task can land straight back on the bucket it just failed on if that
    #: bucket is the first to announce readiness.
    max_retries: int = 0
    meta: dict[str, Any] = field(default_factory=dict)
    #: Mutable retry counter (managed by the buckets).
    attempts: int = 0
    #: Causal flow context (:class:`repro.obs.flow.FlowContext`) riding
    #: with the descriptor through scheduler/transport/bucket hand-offs;
    #: ``None`` whenever tracing is off.
    flow: Any | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.cost_elements < 0:
            raise ValueError(f"cost_elements must be >= 0, got {self.cost_elements}")
        if self.stream_compute is not None:
            if self.compute is not None:
                raise ValueError(
                    "compute and stream_compute are mutually exclusive")
        elif (self.stream_finalize is not None
              or self.stream_cost_per_payload):
            # A buffered task would silently never run either of them.
            raise ValueError("stream_finalize and stream_cost_per_payload "
                             "need stream_compute")
        if self.stream_cost_per_payload < 0:
            raise ValueError("stream_cost_per_payload must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def total_bytes(self) -> int:
        return sum(d.nbytes for d in self.data)


def retire_sentinel() -> TaskDescriptor:
    """The pool-scale-down sentinel handed to exactly one bucket."""
    return TaskDescriptor(task_id=RETIRE_TASK_ID, analysis="__retire__",
                          timestep=-1, data=[])


@dataclass
class TaskResult:
    """A completed in-transit task, with full timing provenance."""

    task_id: str
    analysis: str
    timestep: int
    bucket: str
    value: Any
    enqueue_time: float
    assign_time: float
    pull_done_time: float
    finish_time: float
    bytes_pulled: int

    @property
    def queue_wait(self) -> float:
        return self.assign_time - self.enqueue_time

    @property
    def total_latency(self) -> float:
        return self.finish_time - self.enqueue_time

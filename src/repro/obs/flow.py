"""Causal flow model: explicit hand-off edges between pipeline actors.

A **flow** is the recorded journey of one unit of work (an in-transit
task, a pulled region, a collective) through the pipeline's hand-off
points. Rather than leaving causality to be guessed from time ordering,
a flow *records* it: each hand-off appends a :class:`FlowHop` carrying
the trace-clock time the work arrived at the next actor and the **edge
kind** that explains the segment of time since the previous hop.

The hop chain reads as alternating residencies and edges::

    src span ──notify──▶ scheduler ──queue──▶ task span ──grant──▶ ...

* a hop **without** a ``span_id`` is a checkpoint (the scheduler saw the
  descriptor, a retry backoff expired);
* a hop **with** a ``span_id`` is the flow *entering* that span (its
  ``t`` is the span's start) — the span's own duration is residency,
  charged by stage, while the gap before it is charged to the hop's
  edge kind.

Edge kinds map onto the paper's attribution questions through
:data:`EDGE_BLAME` / :data:`STAGE_BLAME`: every second of a timestep's
end-to-end latency lands in exactly one of :data:`BLAME_BUCKETS`
(see :mod:`repro.obs.blame` for the exact-sum decomposition).

This module is pure data — no tracer import — so the tracer, exporter,
and analysis layers can all depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FlowHop",
    "FlowContext",
    "EDGE_NOTIFY",
    "EDGE_QUEUE",
    "EDGE_GRANT",
    "EDGE_RETRY",
    "EDGE_SERVICE",
    "EDGE_COLLECTIVE",
    "EDGE_KINDS",
    "BLAME_COMPUTE",
    "BLAME_TRANSPORT",
    "BLAME_QUEUE_WAIT",
    "BLAME_RETRY_BACKOFF",
    "BLAME_SCHEDULER_IDLE",
    "BLAME_BUCKETS",
    "EDGE_BLAME",
    "STAGE_BLAME",
    "blame_bucket_for_edge",
    "blame_bucket_for_stage",
]

# -- edge kinds: what explains the time between two hops ----------------------

#: Descriptor on the wire (DART SMSG header to the scheduler).
EDGE_NOTIFY = "notify"
#: Waiting in the scheduler's FCFS queue for a free bucket.
EDGE_QUEUE = "queue"
#: Waiting for a NIC channel grant before the RDMA wire transfer.
EDGE_GRANT = "grant"
#: A failed attempt plus its exponential backoff (pull fault or lease
#: expiry re-dispatch).
EDGE_RETRY = "retry"
#: Hand-off into a compute stage (bucket task body, in-transit kernel).
EDGE_SERVICE = "service"
#: A vmpi collective round (bcast/allreduce/... time model).
EDGE_COLLECTIVE = "collective"

EDGE_KINDS = (EDGE_NOTIFY, EDGE_QUEUE, EDGE_GRANT, EDGE_RETRY,
              EDGE_SERVICE, EDGE_COLLECTIVE)

# -- blame buckets: where a second of makespan is charged ---------------------

BLAME_COMPUTE = "compute"
BLAME_TRANSPORT = "transport"
BLAME_QUEUE_WAIT = "queue_wait"
BLAME_RETRY_BACKOFF = "retry_backoff"
BLAME_SCHEDULER_IDLE = "scheduler_idle"

#: Fixed bucket order for reports; every decomposition sums exactly to
#: its window over these five.
BLAME_BUCKETS = (BLAME_COMPUTE, BLAME_TRANSPORT, BLAME_QUEUE_WAIT,
                 BLAME_RETRY_BACKOFF, BLAME_SCHEDULER_IDLE)

#: Edge kind -> blame bucket for the *gap* the hop closes.
EDGE_BLAME = {
    EDGE_NOTIFY: BLAME_TRANSPORT,
    EDGE_COLLECTIVE: BLAME_TRANSPORT,
    EDGE_QUEUE: BLAME_QUEUE_WAIT,
    EDGE_GRANT: BLAME_QUEUE_WAIT,
    EDGE_RETRY: BLAME_RETRY_BACKOFF,
    EDGE_SERVICE: BLAME_COMPUTE,
}

#: Span ``stage`` tag -> blame bucket for the span's residency.
STAGE_BLAME = {
    "simulation": BLAME_COMPUTE,
    "insitu": BLAME_COMPUTE,
    "intransit": BLAME_COMPUTE,
    "movement": BLAME_TRANSPORT,
}


def blame_bucket_for_edge(kind: str) -> str:
    """Bucket charged for a gap explained by ``kind`` (unknown kinds are
    scheduler idle — unexplained time must not inflate a real bucket)."""
    return EDGE_BLAME.get(kind, BLAME_SCHEDULER_IDLE)


def blame_bucket_for_stage(stage: str | None) -> str:
    """Bucket charged for a span residency in ``stage``."""
    return STAGE_BLAME.get(stage or "", BLAME_COMPUTE)


@dataclass
class FlowHop:
    """One hand-off point along a flow.

    ``t`` is the trace-clock arrival time; ``kind`` explains the segment
    *ending* at ``t`` (the gap since the previous hop / flow begin).
    A hop with ``span_id`` marks the flow entering that span.
    """

    t: float
    kind: str
    lane: str
    span_id: int | None = None
    tags: dict[str, Any] = field(default_factory=dict)


@dataclass(eq=False)
class FlowContext:
    """The recorded causal chain of one unit of work.

    Created by :meth:`repro.obs.tracer.Tracer.flow_begin` (usually at an
    in-situ submit, with the producer span as the source) and carried by
    value through every hand-off; each layer appends hops without having
    to know what came before or after it.
    """

    flow_id: int
    kind: str
    t_begin: float
    src_span_id: int | None = None
    dst_span_id: int | None = None
    hops: list[FlowHop] = field(default_factory=list)
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.dst_span_id is not None

    def span_ids(self) -> list[int]:
        """Span ids the flow passes through, source first (dst included
        when closed; hops through the dst span are not repeated)."""
        ids: list[int] = []
        if self.src_span_id is not None:
            ids.append(self.src_span_id)
        for hop in self.hops:
            if hop.span_id is not None and hop.span_id not in ids:
                ids.append(hop.span_id)
        if self.dst_span_id is not None and self.dst_span_id not in ids:
            ids.append(self.dst_span_id)
        return ids

"""The step table: what each protocol step emits, in one place.

Every step of the paper's Fig. 5 protocol (data-ready → bucket-ready →
FCFS assign → RDMA pull → execute) and of its failure paths is one row
of :data:`STEPS`. :meth:`repro.obs.tracer.Tracer.step` derives all of a
step's records from its row, so an instrument site makes one call::

    if tracer.enabled:  # hot Fig. 5 sites keep their one guard
        tracer.step("sched.assign", self.lane, task, task_id=task.task_id,
                    bucket=b, queue_wait=w)
    tracer.step("sched.bucket_dead", self.lane, bucket=b)  # cold: unguarded

A row's counters are ``name`` (+1) or ``name:tag`` (+ the tag's value);
its histograms and gauges are ``name:tag``; tag lists are space
separated, in record order, and a call passes every tag its row reads,
in that order (``tests/test_module_audit.py`` checks each site). Names
may hold ``{tag}`` fields. The flow hop is a checkpoint at the current
time unless the call passes a span: then the hop enters it, or ends the
flow in it when the row ``closes``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from repro.obs.flow import (EDGE_GRANT, EDGE_NOTIFY, EDGE_QUEUE, EDGE_RETRY,
                            EDGE_SERVICE)

__all__ = ["StepKind", "STEPS"]


def _pairs(spec: str) -> tuple[tuple[str, str | None], ...]:
    return tuple((name, tag or None) for name, _, tag in
                 (item.partition(":") for item in spec.split()))


@dataclass(frozen=True, slots=True)
class StepKind:
    """The records one protocol step emits (see the module docstring)."""

    counters: str = ""
    histograms: str = ""
    gauges: str = ""
    instant: str | None = None
    tags: str = ""
    #: Lane of the instant and hop when the call names none.
    lane: str | None = None
    edge: str | None = None
    #: Edge of a re-submitted task's hop (``task.attempts > 0``).
    retry_edge: str | None = None
    hop_tags: str = ""
    #: With a span, the hop ends the flow in it (else it enters it).
    closes: bool = False
    #: The tags the instruments read: name fields (sorted), then values.
    reads: tuple[str, ...] = field(init=False)
    n_fields: int = field(init=False)  # how many reads are name fields
    #: ``tags -> their reads' values`` (a tuple), kept by a step record;
    #: None when the row has no instruments (its step keeps no record).
    read: Callable[[dict], tuple] | None = field(init=False)

    def __post_init__(self) -> None:
        # Parsed once: a step reads tuples, never the spec strings.
        set_ = partial(object.__setattr__, self)
        for name in ("counters", "histograms", "gauges"):
            set_(name, _pairs(getattr(self, name)))
        for name in ("tags", "hop_tags"):
            set_(name, tuple(getattr(self, name).split()))
        instruments = (*self.counters, *self.histograms, *self.gauges)
        fields = sorted({part.split("}")[0] for n, _tag in instruments
                         for part in n.split("{")[1:]})
        reads = tuple(dict.fromkeys(
            [*fields, *(tag for _n, tag in instruments if tag is not None)]))
        set_("reads", reads)
        set_("n_fields", len(fields))
        set_("read", None if not instruments else _reader(reads))


def _reader(reads: tuple[str, ...]) -> Callable[[dict], tuple]:
    """``tags -> tuple(tags[r] for r in reads)``, at C speed for two+."""
    if len(reads) > 1:
        return itemgetter(*reads)
    return (lambda tags: (tags[reads[0]],)) if reads else (lambda tags: ())


STEPS: dict[str, StepKind] = {
    # -- Fig. 5, per task (hot: sites guard on ``tracer.enabled``) ----------
    "rdma.register": StepKind(
        "rdma.register rdma.registered_bytes:nbytes",
        gauges="rdma.live_bytes:live_bytes"),
    "rdma.release": StepKind("rdma.release",
                             gauges="rdma.live_bytes:live_bytes"),
    "dart.notify": StepKind("dart.notify dart.notify_bytes:nbytes",
                            instant="dart.notify", tags="nbytes"),
    # A re-submitted task arrives via a retry, not a fresh notify.
    "sched.data_ready": StepKind(
        "sched.data_ready", instant="sched.data_ready",
        tags="task_id analysis step", edge=EDGE_NOTIFY, retry_edge=EDGE_RETRY),
    "sched.bucket_ready": StepKind(
        "sched.bucket_ready", instant="sched.bucket_ready", tags="bucket"),
    "sched.assign": StepKind(
        "sched.assign", histograms="sched.queue_wait:queue_wait",
        instant="sched.assign", tags="task_id bucket queue_wait",
        edge=EDGE_QUEUE, hop_tags="bucket"),
    "sched.queue": StepKind(gauges="sched.queue_depth:queue_depth "
                                   "sched.idle_buckets:idle_buckets"),
    # The assign→pickup gap (bucket-ready RPC) charges to service.
    "bucket.pickup": StepKind(edge=EDGE_SERVICE, hop_tags="attempt"),
    # The gap before the wire span is NIC queueing (both channel grants).
    "dart.grant": StepKind(edge=EDGE_GRANT, hop_tags="region"),
    "dart.pull": StepKind("dart.pull.{protocol} dart.bytes_pulled:nbytes",
                          histograms="dart.pull_bytes:nbytes"),
    "dart.pull_stall": StepKind(
        "dart.pull_stalls dart.pull_stall_seconds:stall"),
    # The task's flow ends in its compute span.
    "bucket.done": StepKind(
        "bucket.tasks_done bucket.bytes_consumed:nbytes",
        histograms="bucket.task_time:task_time",
        edge=EDGE_SERVICE, closes=True),
    # -- failure paths (cold: sites call unguarded) -------------------------
    "faults.crash": StepKind("faults.bucket_crashes", instant="faults.crash",
                             lane="faults", tags="bucket"),
    "faults.pull_failure": StepKind("faults.pull_failures"),
    "faults.pull_stall": StepKind("faults.pull_stalls"),
    "bucket.crash": StepKind("bucket.crashes", instant="bucket.crash",
                             tags="cause"),
    "bucket.failure": StepKind("bucket.task_failures",
                               instant="bucket.failure",
                               tags="task_id error attempt"),
    "bucket.retry": StepKind("bucket.retries"),
    "bucket.terminal_failure": StepKind("bucket.terminal_failures"),
    "bucket.retire": StepKind("bucket.retirements", instant="bucket.retire"),
    "sched.bucket_retire": StepKind("sched.bucket_retired",
                                    instant="sched.bucket_retire",
                                    tags="bucket"),
    "sched.bucket_dead": StepKind("sched.bucket_dead dataspaces.bucket_deaths",
                                  instant="sched.bucket_dead", tags="bucket"),
    # The lease period burned on the dead bucket is a retry cost; the
    # follow-on data-ready hop lands at the same instant.
    "sched.lease_reassign": StepKind(
        "sched.lease_reassign", histograms="sched.lease_detect_delay:delay",
        instant="sched.lease_reassign", tags="task_id bucket",
        edge=EDGE_RETRY, hop_tags="reason bucket"),
    "dart.pull_retry": StepKind("dart.pull_faults dart.pull_retries",
                                instant="dart.pull_retry",
                                tags="region attempt backoff"),
    # After the backoff: the failed attempt plus its backoff is retry.
    "dart.pull_backoff": StepKind(edge=EDGE_RETRY,
                                  hop_tags="region attempt backoff"),
    "dart.pull_exhausted": StepKind("dart.pull_faults dart.pull_exhausted",
                                    instant="dart.pull_exhausted",
                                    tags="region attempts"),
    "dataspaces.bucket_restart": StepKind(
        "dataspaces.bucket_restarts", instant="dataspaces.bucket_restart",
        lane="dataspaces", tags="dead replacement"),
    "dataspaces.pool_respawn": StepKind(
        "dataspaces.pool_respawns", instant="dataspaces.pool_respawn",
        lane="dataspaces", tags="dead replacement"),
    "dataspaces.scale_to": StepKind(
        "dataspaces.pool_scalings", instant="dataspaces.scale_to",
        lane="dataspaces", tags="target spawned retiring"),
    "dataspaces.degraded": StepKind("dataspaces.degraded",
                                    instant="dataspaces.degraded",
                                    lane="dataspaces"),
    # A degraded area runs the task in-situ, where its data was produced:
    # the flow ends in that compute span.
    "dataspaces.fallback": StepKind(
        "dataspaces.fallback_tasks", edge=EDGE_SERVICE, closes=True),
    "dataspaces.fallback_failure": StepKind(
        "dataspaces.fallback_failures", instant="dataspaces.fallback_failure",
        lane="dataspaces", tags="task_id error"),
    # -- drivers, collectives, service and controller -----------------------
    "framework.analysed_step": StepKind("framework.analysed_steps"),
    "framework.submit": StepKind("framework.submit.{analysis}"),
    "vmpi.collective": StepKind(
        "vmpi.{op} vmpi.coll_bytes:nbytes",
        histograms="vmpi.coll_time:modeled_time", instant="vmpi.{op}",
        lane="vmpi", tags="n_ranks nbytes modeled_time"),
    "service.job_start": StepKind(
        histograms="service.queue_wait_s:queue_wait"),
    "service.job_failed": StepKind("service.jobs_failed"),
    "service.cache_hit": StepKind("service.cache_hits"),
    "service.cache_miss": StepKind("service.cache_misses"),
    "service.hit_rate": StepKind(gauges="service.cache_hit_rate:hit_rate"),
    "service.shard_load": StepKind(gauges="service.shard.{shard}.tasks:tasks "
                                          "service.shard.{shard}.bytes:bytes"),
    "controller.decision": StepKind(
        "controller.decisions controller.{action}",
        instant="controller.decision", lane="controller",
        tags="kind subject before after window"),
    "controller.window": StepKind(gauges=" ".join(
        f"controller.{name}:{name}" for name in (
            "queue_wait_share", "transport_share", "insitu_share",
            "pool_size", "queue_depth"))),
}

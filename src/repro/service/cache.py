"""The memoized schedule/cost-model cache.

Schedule replays are deterministic functions of *(modeled machine,
workload spec, placement)* — the DES has no other inputs. The service
therefore memoizes them: the first job with a given key pays the replay,
every later identical what-if query is a cache hit returning the exact
same :class:`~repro.core.runner.ScheduleResult` figures (JSON
round-trips Python floats by ``repr``, so cached results are
bit-identical to fresh ones).

Entries persist through the :class:`~repro.obs.perf.RunStore` contract —
each insert appends one ``schedule-cache`` record whose ``meta`` carries
the key and the full schedule summary — so a restarted service warms up
from disk and cache history is inspectable with the same tooling as any
other run store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.runner import ScheduleResult
from repro.obs.capacity import CapacityReport
from repro.staging.dataspaces import ShardBalanceReport
from repro.staging.descriptors import TaskResult

if TYPE_CHECKING:
    from repro.obs.perf import RunStore

CACHE_SOURCE = "schedule-cache"

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def schedule_cache_key(machine: dict[str, Any], workload: dict[str, Any],
                       placement: dict[str, Any]) -> str:
    """Stable key over (machine fingerprint, workload spec, placement)."""
    payload = _KEY_ENCODER.encode(
        {"machine": machine, "workload": workload, "placement": placement})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def schedule_to_dict(sched: ScheduleResult) -> dict[str, Any]:
    """Serialize the replay figures a cache hit must reproduce exactly.

    Task ``value`` payloads are always None on the replay path and
    scheduler assignment records are droppable provenance, so the
    round-trip covers everything :class:`ScheduleResult` exposes to
    service clients.
    """
    return {
        "makespan": sched.makespan,
        "n_steps": sched.n_steps,
        "sim_step_time": sched.sim_step_time,
        "n_buckets": sched.n_buckets,
        "failed_tasks": sched.failed_tasks,
        "results": [
            [r.task_id, r.analysis, r.timestep, r.bucket,
             r.enqueue_time, r.assign_time, r.pull_done_time,
             r.finish_time, r.bytes_pulled]
            for r in sched.results
        ],
        "shard_balance": (sched.shard_balance.to_dict()
                          if sched.shard_balance is not None else None),
        # Full series (series_cap=None): a hit's capacity report must be
        # bit-identical to the fresh one, like every other cached figure.
        "capacity": (sched.capacity.to_dict(series_cap=None)
                     if sched.capacity is not None else None),
    }


def schedule_from_dict(d: dict[str, Any]) -> ScheduleResult:
    """Rebuild a :class:`ScheduleResult` from its cached summary."""
    # A row is TaskResult's fields in order, less ``value``.
    results = [TaskResult(*row[:4], None, *row[4:]) for row in d["results"]]
    balance = d.get("shard_balance")
    capacity = d.get("capacity")
    return ScheduleResult(
        results=results,
        makespan=d["makespan"],
        n_steps=d["n_steps"],
        sim_step_time=d["sim_step_time"],
        n_buckets=d["n_buckets"],
        # An entry older than this field is a decode miss that heals.
        failed_tasks=d["failed_tasks"],
        shard_balance=(ShardBalanceReport.from_dict(balance)
                       if balance is not None else None),
        capacity=(CapacityReport.from_dict(capacity)
                  if capacity is not None else None),
    )


class ScheduleCache:
    """Key -> cached schedule map with optional RunStore persistence.

    A hit costs a lookup. Each key has one slot: it holds the stored
    summary dict until the key's first hit decodes it, and from then on
    the decoded :class:`ScheduleResult`, which every later hit shares —
    callers must treat it as read-only. The result is always decoded from
    the summary, never the freshly inserted object, so a hit in a running
    service and a hit after a restart are the same object graph (no
    ``assignments``, ``probes``, ``controller`` or ``faults``).
    """

    def __init__(self, store: RunStore | str | Path | None = None) -> None:
        if store is not None:
            from repro.obs.perf import RunStore

            if not isinstance(store, RunStore):
                store = RunStore(store)
        self.store = store
        self._mem: dict[str, dict[str, Any] | ScheduleResult] = {}
        self.hits = 0
        self.misses = 0
        #: Entries whose summary no longer decoded (older schema, torn
        #: row); each was dropped and answered as a miss.
        self.decode_errors = 0
        if self.store is not None:
            for rec in self.store.records():
                if rec.source != CACHE_SOURCE:
                    continue
                key = rec.meta.get("cache_key")
                summary = rec.meta.get("schedule")
                if key and isinstance(summary, dict):
                    self._mem[key] = summary

    def lookup(self, key: str) -> ScheduleResult | None:
        """The cached result for ``key`` (counting the hit/miss).

        A summary that does not decode is a counted miss: the entry is
        dropped, so the caller's replay-and-insert repairs it.
        """
        entry = self._mem.get(key)
        if type(entry) is dict:
            try:
                entry = self._mem[key] = schedule_from_dict(entry)
            except (LookupError, TypeError, ValueError, AttributeError):
                del self._mem[key]
                self.decode_errors += 1
                entry = None
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def insert(self, key: str, sched: ScheduleResult,
               meta: dict[str, Any] | None = None) -> None:
        summary = schedule_to_dict(sched)
        # One slot per key: a re-insert also replaces a decoded entry.
        self._mem[key] = summary
        if self.store is not None:
            from repro.obs.perf import RunRecord

            self.store.append(RunRecord.new(
                source=CACHE_SOURCE,
                metrics={"schedule.makespan_s": sched.makespan,
                         "schedule.n_tasks": float(len(sched.results))},
                meta={"cache_key": key, "schedule": summary,
                      **(meta or {})}))

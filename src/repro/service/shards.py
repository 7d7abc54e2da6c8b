"""Sharded DataSpaces: the paper's DHT hashing design scaled out.

One :class:`~repro.staging.dataspaces.DataSpaces` instance models one
staging area: a single transport fabric, one scheduler, one bucket pool.
The service layer runs *concurrent* campaigns, so staging traffic must be
isolated and load-balanced; :class:`ShardedDataSpaces` provides that by
running N independent tuple-space shards behind one facade and routing
every region key across them with a :class:`~repro.staging.hashing.ServiceRing`
— the same consistent hashing the paper credits for balancing RPC load
over DataSpaces servers, applied one level up.

Each shard owns its own :class:`~repro.transport.dart.DartTransport`
(an independent NIC partition of the scaled-out fabric), its own
scheduler (with a per-shard trace lane), and a contiguous slice of the
bucket pool, so one tenant's burst saturates one shard's queue without
stalling the others. :meth:`balance_report` quantifies how even the
split came out.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.costmodel.models import CostModel
from repro.des import Engine
from repro.staging.dataspaces import DataSpaces
from repro.staging.hashing import ServiceRing
from repro.staging.scheduler import AssignmentRecord
from repro.transport.dart import DartTransport


@dataclass
class ShardLoad:
    """Traffic landed on one shard."""

    shard: int
    tasks: int = 0
    bytes: int = 0
    rpcs: int = 0
    buckets: int = 0

    def to_dict(self) -> dict[str, int]:
        return {"shard": self.shard, "tasks": self.tasks, "bytes": self.bytes,
                "rpcs": self.rpcs, "buckets": self.buckets}


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
            "loads": [load.to_dict() for load in self.loads],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ShardBalanceReport":
        return cls(loads=[ShardLoad(shard=x["shard"], tasks=x["tasks"],
                                    bytes=x["bytes"], rpcs=x["rpcs"],
                                    buckets=x["buckets"])
                          for x in d.get("loads", [])],
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
        vn = max((r.virtual_nodes for r in reports), default=0)
        return cls(loads=loads, virtual_nodes=vn)


@dataclass
class _ShardStats:
    tasks: int = 0
    bytes: int = 0
    buckets: int = 0


class ShardedDataSpaces:
    """N independent DataSpaces shards behind ServiceRing DHT routing.

    Mirrors the single-space workflow API the replay drives
    (``submit_insitu_result``, ``spawn_buckets``, ``shutdown_buckets``,
    ``all_results``), routing each task to the shard owning its region
    key ``"{analysis}/t{timestep}"``, so one analysis step's traffic stays
    on one shard while distinct (analysis, step) pairs spread out.

    The fault knobs are applied to every shard; faults are contained per
    shard (a shard degrading to in-situ fallback does not touch its
    peers' queues).
    """

    def __init__(self, engine: Engine, network: Any, n_shards: int,
                 n_servers: int = 4, cost_model: CostModel | None = None,
                 virtual_nodes: int = 64,
                 lease_timeout: float | None = None,
                 bucket_restart_delay: float | None = None,
                 max_bucket_restarts: int = 0) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.engine = engine
        self.n_shards = n_shards
        self.ring = ServiceRing(n_shards, virtual_nodes=virtual_nodes)
        # Service cores split across shards: each shard hashes its own
        # keyspace over its slice of the DataSpaces server pool.
        per_shard_servers = max(1, n_servers // n_shards)
        self.transports = [DartTransport(engine, network)
                           for _ in range(n_shards)]
        self.shards = [
            DataSpaces(engine, self.transports[i],
                       n_servers=per_shard_servers,
                       cost_model=cost_model,
                       lease_timeout=lease_timeout,
                       bucket_restart_delay=bucket_restart_delay,
                       max_bucket_restarts=max_bucket_restarts,
                       name=f"shard{i}")
            for i in range(n_shards)
        ]
        self._stats = [_ShardStats() for _ in range(n_shards)]
        #: Producer span anchoring the next submitted task's causal flow
        #: (same contract as :attr:`DataSpaces.flow_src`).
        self.flow_src: Any | None = None

    # -- routing -------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """Shard index owning ``key`` under the DHT."""
        return self.ring.server_for(key)

    @staticmethod
    def region_key(analysis: str, timestep: int) -> str:
        """Routing key for one (analysis, analysed step) region."""
        return f"{analysis}/t{timestep}"

    # -- workflow ------------------------------------------------------------

    def submit_insitu_result(self, analysis: str, timestep: int,
                             source_node: str, payload: Any,
                             nbytes: int | None = None,
                             **kwargs: Any) -> Any:
        """Route one in-situ result to its region's shard (data-ready RPC)."""
        idx = self.shard_for(self.region_key(analysis, timestep))
        shard = self.shards[idx]
        stats = self._stats[idx]
        stats.tasks += 1
        stats.bytes += int(nbytes or 0)
        shard.flow_src = self.flow_src
        try:
            return shard.submit_insitu_result(
                analysis=analysis, timestep=timestep,
                source_node=source_node, payload=payload, nbytes=nbytes,
                **kwargs)
        finally:
            shard.flow_src = None

    def spawn_buckets(self, names: Sequence[str]) -> list[Any]:
        """Split the bucket pool contiguously across shards.

        Every shard must end up with at least one bucket — a shard with
        tasks but no staging cores would never drain.
        """
        if len(names) < self.n_shards:
            raise ValueError(
                f"need at least one bucket per shard: got {len(names)} "
                f"buckets for {self.n_shards} shards")
        buckets: list[Any] = []
        for i, shard in enumerate(self.shards):
            slice_names = list(names[i::self.n_shards])
            self._stats[i].buckets = len(slice_names)
            buckets.extend(shard.spawn_buckets(slice_names))
        return buckets

    def shutdown_buckets(self) -> None:
        for shard in self.shards:
            shard.shutdown_buckets()

    def all_results(self) -> list:
        out = [r for shard in self.shards for r in shard.all_results()]
        out.sort(key=lambda r: r.finish_time)
        return out

    def assignment_records(self) -> list[AssignmentRecord]:
        out = [rec for shard in self.shards
               for rec in shard.scheduler.assignments]
        out.sort(key=lambda rec: rec.assign_time)
        return out

    def task_accounting(self) -> dict[str, int]:
        """The shards' :meth:`DataSpaces.task_accounting` ledgers summed."""
        ledgers = [shard.task_accounting() for shard in self.shards]
        return {key: sum(led[key] for led in ledgers) for key in ledgers[0]}

    def probe_map(self) -> dict[str, Callable[[], float]]:
        """The shards' :meth:`DataSpaces.probe_map` gauges summed, plus
        per-shard queue depths, for the live
        :class:`~repro.obs.probes.ProbeSampler`."""
        maps = [shard.probe_map() for shard in self.shards]
        probes: dict[str, Callable[[], float]] = {
            name: lambda fns=[m[name] for m in maps]: float(
                sum(fn() for fn in fns))
            for name in maps[0]}
        for i, m in enumerate(maps):
            probes[f"shard.{i}.queue_depth"] = m["sched.queue_depth"]
        return probes

    def balance_report(self) -> ShardBalanceReport:
        """Per-shard traffic report: tasks/bytes routed, RPCs handled,
        buckets assigned — the DHT load-balance evidence."""
        loads = []
        for i, shard in enumerate(self.shards):
            stats = self._stats[i]
            loads.append(ShardLoad(
                shard=i, tasks=stats.tasks, bytes=stats.bytes,
                rpcs=sum(shard.server_rpc_counts),
                buckets=stats.buckets))
        return ShardBalanceReport(loads=loads,
                                  virtual_nodes=self.ring.virtual_nodes)

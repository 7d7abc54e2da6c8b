"""I/O aggregation strategies: file-per-process vs N-to-M subfiling.

Table I's note — file-per-process "achieves near peak I/O bandwidths over
a wide range of core counts" — hides a trade-off this module models: at
very large core counts, per-file metadata operations swamp the metadata
server, while heavy aggregation serialises data through too few writers.
ADIOS's answer is N-to-M aggregation (N ranks funnel through M
aggregators, one subfile each). The model charges

* metadata: one create/open per file against a metadata-op-rate budget;
* aggregation forwarding: N-to-M shuffle over the interconnect;
* write: min(OST aggregate bandwidth, M x per-client bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.gemini import GeminiNetwork
from repro.machine.lustre import LustreModel


@dataclass(frozen=True)
class AggregationModel:
    """Cost model for an N-to-M aggregated checkpoint write."""

    filesystem: LustreModel
    network: GeminiNetwork
    #: Metadata server throughput (file creates per second).
    metadata_ops_per_s: float = 40_000.0

    def __post_init__(self) -> None:
        if self.metadata_ops_per_s <= 0:
            raise ValueError("metadata_ops_per_s must be positive")

    def write_time(self, total_bytes: int, n_ranks: int,
                   n_aggregators: int) -> float:
        """Seconds to write ``total_bytes`` via ``n_aggregators`` subfiles.

        ``n_aggregators == n_ranks`` degenerates to file-per-process (no
        forwarding); ``n_aggregators == 1`` is the single-shared-funnel
        extreme.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be >= 0")
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if not 1 <= n_aggregators <= n_ranks:
            raise ValueError(
                f"n_aggregators must be in [1, n_ranks], got {n_aggregators}")

        metadata = n_aggregators / self.metadata_ops_per_s
        # Forwarding: each non-aggregator ships its share to its
        # aggregator; aggregators ingest (N/M - 1) messages concurrently.
        per_rank = total_bytes / n_ranks
        ranks_per_agg = n_ranks / n_aggregators
        if n_aggregators == n_ranks:
            forward = 0.0
        else:
            forward = (ranks_per_agg - 1) * self.network.transfer_time(
                int(per_rank))
        bw = min(self.filesystem.aggregate_write_bw,
                 n_aggregators * self.filesystem.client_bw)
        write = total_bytes / bw
        return metadata + forward + write

    def best_aggregator_count(self, total_bytes: int, n_ranks: int) -> int:
        """Aggregator count minimising modeled write time."""
        candidates = sorted({1, 2, 4, 8} | {
            max(1, n_ranks // k) for k in (1, 2, 4, 8, 16, 32, 64, 128)})
        candidates = [c for c in candidates if 1 <= c <= n_ranks]
        return min(candidates,
                   key=lambda m: self.write_time(total_bytes, n_ranks, m))

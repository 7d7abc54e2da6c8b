"""Descriptors and transfer records exchanged through the transport layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.machine.gemini import Protocol


@dataclass(frozen=True)
class DataDescriptor:
    """Handle to an RDMA-registered data region.

    This is what in-situ ranks insert into DataSpaces on a *data-ready*
    event: enough information for any staging bucket to pull the payload
    directly from the producer's memory.
    """

    region_id: str
    source_node: str
    nbytes: int
    #: Free-form metadata: analysis name, timestep, rank, variable, ...
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if not self.region_id:
            raise ValueError("region_id must be non-empty")

    def descriptor_bytes(self) -> int:
        """Wire size of the descriptor itself (an SMSG-scale RPC payload)."""
        return 128 + 32 * len(self.meta)


@dataclass
class TransferRecord:
    """Completed transfer, for tracing and the benchmark harness."""

    region_id: str
    source_node: str
    dest_node: str
    nbytes: int
    protocol: Protocol
    start_time: float
    end_time: float

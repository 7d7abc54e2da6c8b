"""Gemini-like interconnect model with size-adaptive protocol selection.

Section IV of the paper describes DART's use of Cray Gemini's uGNI
interface: the *Short Message* (SMSG) mechanism (built on Fast Memory
Access, FMA) for small messages — lowest latency, OS-bypass, high message
rate — and the *Block Transfer Engine* (BTE) RDMA Get/Put for large
transfers — higher setup cost but full link bandwidth with
computation/communication overlap.

This module models both mechanisms analytically (latency + size/bandwidth)
and reproduces DART's dynamic selection by message size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.units import GB, KB


class Protocol(enum.Enum):
    """Transfer mechanism chosen by the transport layer."""

    SMSG = "smsg"  # FMA short message: low latency, limited size
    BTE = "bte"    # Block Transfer Engine RDMA: high bandwidth


@dataclass(frozen=True)
class GeminiNetwork:
    """Analytic two-regime network model.

    Default constants approximate published Gemini microbenchmarks:
    ~1.5 us small-message latency, ~6 GB/s per-direction injection
    bandwidth, ~10 us RDMA post/completion overhead.
    """

    smsg_latency: float = 1.5e-6          # seconds, per SMSG message
    smsg_bandwidth: float = 1.2 * GB      # bytes/s in the FMA regime
    smsg_max_bytes: int = 16 * KB         # DART's switch-over threshold
    bte_setup: float = 1.0e-5             # seconds, RDMA post + event
    bte_bandwidth: float = 6.0 * GB       # bytes/s sustained RDMA
    #: Per-hop latency for topology-aware costing (3-D torus average hops
    #: are folded into the base latencies; this is exposed for ablations).
    hop_latency: float = 1.0e-7

    def __post_init__(self) -> None:
        if min(self.smsg_latency, self.bte_setup, self.hop_latency) < 0:
            raise ValueError("latencies must be non-negative")
        if min(self.smsg_bandwidth, self.bte_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")
        if self.smsg_max_bytes < 1:
            raise ValueError("smsg_max_bytes must be >= 1")

    def select_protocol(self, nbytes: int) -> Protocol:
        """DART's size-adaptive mechanism choice (§IV)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return Protocol.SMSG if nbytes <= self.smsg_max_bytes else Protocol.BTE

    def transfer_time(self, nbytes: int, protocol: Protocol | None = None,
                      hops: int = 0) -> float:
        """Seconds to move ``nbytes`` point-to-point.

        ``protocol=None`` applies DART's automatic selection; passing an
        explicit protocol supports the ablation benchmark that sweeps the
        switch-over threshold.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        extra = hops * self.hop_latency
        # ``select_protocol``'s choice, inline: ``nbytes`` is checked above.
        if protocol is Protocol.SMSG or (protocol is None
                                         and nbytes <= self.smsg_max_bytes):
            return self.smsg_latency + nbytes / self.smsg_bandwidth + extra
        return self.bte_setup + nbytes / self.bte_bandwidth + extra

    def crossover_bytes(self) -> float:
        """Message size where SMSG and BTE cost the same.

        Below this size SMSG is faster; above, BTE. Solves
        ``l_s + n/b_s = l_b + n/b_b`` for ``n``.
        """
        inv = 1.0 / self.smsg_bandwidth - 1.0 / self.bte_bandwidth
        if inv <= 0:
            return 0.0
        return (self.bte_setup - self.smsg_latency) / inv

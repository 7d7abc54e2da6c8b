"""Analytic time models for MPI collectives on a point-to-point network.

Standard LogP-style costs for the tree/ring algorithms production MPIs use.
Each function returns seconds for ``p`` ranks exchanging ``nbytes`` per
rank over a :class:`~repro.machine.gemini.GeminiNetwork`.

These are the costs the performance layer charges when the functional layer
executes a :class:`~repro.vmpi.comm.VirtualComm` collective.
"""

from __future__ import annotations

import math

from repro.machine.gemini import GeminiNetwork


def _check(p: int, nbytes: int) -> None:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")


def bcast_time(net: GeminiNetwork, p: int, nbytes: int) -> float:
    """Binomial-tree broadcast: ``ceil(log2 p)`` rounds of one message."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * net.transfer_time(nbytes)


def reduce_time(net: GeminiNetwork, p: int, nbytes: int) -> float:
    """Binomial-tree reduction to a root (same shape as bcast)."""
    return bcast_time(net, p, nbytes)


def allreduce_time(net: GeminiNetwork, p: int, nbytes: int) -> float:
    """Rabenseifner allreduce: a reduce-scatter phase, then an all-gather.

    ``2 (p-1)/p · n / bw``-bytes of traffic on the critical path plus
    ``2 log2 p`` latency terms.
    """
    _check(p, nbytes)
    if p == 1:
        return 0.0
    rounds = 2 * math.ceil(math.log2(p))
    lat = rounds * net.bte_setup if nbytes > net.smsg_max_bytes else rounds * net.smsg_latency
    bw = net.bte_bandwidth if nbytes > net.smsg_max_bytes else net.smsg_bandwidth
    return lat + 2.0 * (p - 1) / p * nbytes / bw

"""DHT-style key hashing over DataSpaces service cores.

The paper attributes the scheduler's scalability to "the hashing used to
balance the RPC messages over multiple DataSpaces servers". This module
provides that mapping: a stable hash ring assigning keys to service cores,
so RPC load spreads evenly and the assignment is independent of insertion
order.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import operator
from array import array


def _stable_hash(key: str) -> int:
    """64-bit stable hash (Python's builtin ``hash`` is salted per process)."""
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(),
                          "big")


@functools.lru_cache(maxsize=32)
def _ring_geometry(n_servers: int,
                   virtual_nodes: int) -> tuple[memoryview, memoryview]:
    """Sorted ring points ``(hashes, owning servers)`` of one ring shape.

    A pure function of the shape, so it is built once per process and
    shared by every :class:`ServiceRing` of that shape: read-only views
    of packed arrays (8 + 4 bytes a point, not a 36-byte int object).
    """
    hashes, servers = zip(*sorted(
        (_stable_hash(f"server-{server}#vn{v}"), server)
        for server in range(n_servers) for v in range(virtual_nodes)))
    return (memoryview(array("Q", hashes)).toreadonly(),
            memoryview(array("I", servers)).toreadonly())


class ServiceRing:
    """Consistent-hash ring over ``n_servers`` service cores.

    Virtual nodes smooth the distribution; ``server_for`` is O(log V).
    The ring points are shared, immutable, process-wide state per
    ``(n_servers, virtual_nodes)``; a ring instance owns nothing mutable.
    """

    def __init__(self, n_servers: int, virtual_nodes: int = 64) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.n_servers = n_servers
        self.virtual_nodes = virtual_nodes
        # operator.index rejects non-integers as range() did when the points
        # were built here, before 4.0 could alias the memo's entry for 4.
        self._ring_keys, self._ring_servers = _ring_geometry(
            operator.index(n_servers), operator.index(virtual_nodes))

    def server_for(self, key: str) -> int:
        """Service core responsible for ``key``."""
        # First ring point >= the key's hash, wrapping past the last to 0.
        idx = bisect.bisect_left(self._ring_keys, _stable_hash(key))
        return self._ring_servers[idx % len(self._ring_keys)]

    def load_histogram(self, keys: list[str]) -> list[int]:
        """Number of keys landing on each server (for balance tests)."""
        counts = [0] * self.n_servers
        for k in keys:
            counts[self.server_for(k)] += 1
        return counts

    def imbalance(self, keys: list[str]) -> float:
        """Max-over-mean load ratio for ``keys`` (1.0 = perfectly even).

        The service layer's shard-balance report uses this figure: with
        enough virtual nodes the ratio stays bounded (a few tens of
        percent), which is what makes DHT routing a load balancer and not
        just a partitioner.
        """
        if not keys:
            return 1.0
        counts = self.load_histogram(keys)
        mean = len(keys) / self.n_servers
        return max(counts) / mean

    def moved_fraction(self, keys: list[str], other: "ServiceRing") -> float:
        """Fraction of ``keys`` whose assignment differs under ``other``.

        Consistent hashing's scaling contract: growing an *N*-shard ring
        to *N+1* (or shrinking to *N-1*) relocates only ~1/(N+1) (resp.
        ~1/N) of the keys, because virtual-node points are hashed per
        server and survive resizing unchanged.
        """
        if not keys:
            return 0.0
        moved = sum(1 for k in keys if self.server_for(k) != other.server_for(k))
        return moved / len(keys)

"""Registered memory regions: the "pinned buffers" in-situ ranks expose.

An :class:`RdmaRegion` pairs a real payload (any Python object; NumPy
arrays report true byte sizes) with the registration bookkeeping DART
performs. The :class:`RdmaRegistry` is the per-run table of currently
registered regions; pulling an unregistered or already-released region is
an error, mirroring real one-sided-communication hazards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracer import get_tracer
from repro.vmpi.comm import payload_bytes


@dataclass(slots=True)
class RdmaRegion:
    """One registered region with its live payload."""

    region_id: str
    source_node: str
    payload: Any
    nbytes: int
    released: bool = False
    pull_count: int = 0
    meta: dict[str, Any] = field(default_factory=dict)


class RdmaRegistry:
    """Table of registered regions, keyed by region id."""

    def __init__(self) -> None:
        self._regions: dict[str, RdmaRegion] = {}
        self._ids = itertools.count()
        self._tracer = get_tracer()
        self._live_bytes = 0
        #: Capacity ledger (:class:`repro.obs.capacity.CapacityLedger`)
        #: observing this registry, or None — register/release pay one
        #: ``is None`` check when no ledger is attached.
        self.ledger: Any = None
        self.ledger_shard = "shard0"

    def __contains__(self, region_id: str) -> bool:
        return region_id in self._regions

    def register(self, source_node: str, payload: Any,
                 meta: dict[str, Any] | None = None,
                 nbytes: int | None = None) -> RdmaRegion:
        """Register ``payload`` for remote pulls; returns the region.

        ``nbytes`` overrides the measured payload size when the in-memory
        object is a scaled-down stand-in for a full-scale buffer (the DES
        charges the full-scale size while the functional layer carries the
        small one).
        """
        region_id = f"{source_node}/region-{next(self._ids)}"
        size = payload_bytes(payload) if nbytes is None else nbytes
        if size < 0:
            raise ValueError(f"nbytes must be >= 0, got {size}")
        region = RdmaRegion(region_id, source_node, payload, size, False, 0,
                            dict(meta or {}))
        self._regions[region_id] = region
        self._live_bytes += size
        if self._tracer.enabled:
            self._tracer.step("rdma.register", nbytes=size,
                              live_bytes=self._live_bytes)
        if self.ledger is not None:
            self.ledger.on_register(region, self.ledger_shard)
        return region

    def lookup(self, region_id: str) -> RdmaRegion:
        try:
            region = self._regions[region_id]
        except KeyError:
            raise KeyError(f"region {region_id!r} is not registered") from None
        if region.released:
            raise RuntimeError(f"region {region_id!r} was already released")
        return region

    def release(self, region_id: str) -> None:
        """Unregister a region, freeing the producer's pinned memory."""
        region = self.lookup(region_id)
        region.released = True
        del self._regions[region_id]
        self._live_bytes -= region.nbytes
        if self._tracer.enabled:
            self._tracer.step("rdma.release", live_bytes=self._live_bytes)
        if self.ledger is not None:
            self.ledger.on_release(region, self.ledger_shard)

    def region_ids(self) -> list[str]:
        """Ids of every currently registered region (leak-scan surface)."""
        return list(self._regions)

    def live_bytes(self, source_node: str | None = None) -> int:
        """Total registered bytes (optionally for one node) — the in-situ
        scratch-memory footprint the paper's §III constraints bound."""
        if source_node is None:
            return self._live_bytes
        return sum(r.nbytes for r in self._regions.values()
                   if r.source_node == source_node)

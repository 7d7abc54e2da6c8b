"""3-D torus network topology (Gemini's wiring on the XK6).

Jaguar's Gemini interconnect is a 3-D torus; per-hop latency is small but
at 18k+ nodes the diameter matters for worst-case transfers. This module
provides node placement and hop counting; the
:meth:`~repro.machine.gemini.GeminiNetwork.transfer_time` ``hops``
parameter consumes the result.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TorusTopology:
    """A ``dims[0] x dims[1] x dims[2]`` torus of nodes."""

    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be 3 positive extents, got {self.dims}")

    @property
    def n_nodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    @classmethod
    def jaguar(cls) -> "TorusTopology":
        """Jaguar XK6's torus: 25 x 32 x 24 Gemini ASICs (each serving two
        nodes; we model at node granularity with 25 x 32 x 24 ~ 19,200
        >= 18,688 slots)."""
        return cls((25, 32, 24))

    def coords_of(self, node: int) -> tuple[int, int, int]:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")
        x, y, _z = self.dims
        return (node % x, (node // x) % y, node // (x * y))

    def node_at(self, coords: tuple[int, int, int]) -> int:
        x, y, z = self.dims
        cx, cy, cz = (coords[0] % x, coords[1] % y, coords[2] % z)
        return cx + x * (cy + y * cz)

    def hops(self, a: int, b: int) -> int:
        """Minimal torus (periodic Manhattan) distance between two nodes."""
        ca, cb = self.coords_of(a), self.coords_of(b)
        total = 0
        for axis in range(3):
            d = abs(ca[axis] - cb[axis])
            total += min(d, self.dims[axis] - d)
        return total

    @property
    def diameter(self) -> int:
        return sum(d // 2 for d in self.dims)

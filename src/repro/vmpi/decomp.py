"""3-D block domain decomposition, mirroring S3D's layout.

The paper's runs decompose a ``1600 × 1372 × 430`` grid over
``16 × 28 × 10`` (4480 ranks, ``100 × 49 × 43`` each) or ``32 × 28 × 10``
(8960 ranks, ``50 × 49 × 43`` each). This module reproduces that mapping
and generalises to uneven divisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Block3D:
    """One rank's sub-brick of the global grid.

    ``lo`` is inclusive, ``hi`` exclusive, in global index space
    (x, y, z ordering to match the paper's ``nx × ny × nz`` notation).
    """

    rank: int
    coords: tuple[int, int, int]
    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))  # type: ignore[return-value]

    @property
    def n_cells(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        """Slices into a global ``(nx, ny, nz)`` array."""
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))  # type: ignore[return-value]


class BlockDecomposition3D:
    """Regular (near-regular for uneven sizes) 3-D block decomposition.

    Rank order is x-fastest (rank = ix + px*(iy + py*iz)), matching common
    Fortran-style SPMD layouts.
    """

    def __init__(self, global_shape: tuple[int, int, int],
                 proc_grid: tuple[int, int, int]) -> None:
        if len(global_shape) != 3 or len(proc_grid) != 3:
            raise ValueError("global_shape and proc_grid must be 3-tuples")
        if any(n < 1 for n in global_shape):
            raise ValueError(f"invalid global shape {global_shape}")
        if any(p < 1 for p in proc_grid):
            raise ValueError(f"invalid process grid {proc_grid}")
        if any(p > n for n, p in zip(global_shape, proc_grid)):
            raise ValueError(
                f"process grid {proc_grid} exceeds grid {global_shape} in some axis"
            )
        self.global_shape = tuple(global_shape)
        self.proc_grid = tuple(proc_grid)
        # Near-even split: first (n % p) blocks get one extra cell.
        self._starts = [self._axis_starts(n, p)
                        for n, p in zip(global_shape, proc_grid)]
        # Built on the first blocks() call: the replay workloads construct
        # thousands-of-ranks decompositions only to validate a config.
        self._blocks: list[Block3D] | None = None
        self._shape_groups: list[tuple[int, ...]] | None = None

    @staticmethod
    def _axis_starts(n: int, p: int) -> list[int]:
        base, extra = divmod(n, p)
        starts = [0]
        for i in range(p):
            starts.append(starts[-1] + base + (1 if i < extra else 0))
        return starts

    @property
    def n_ranks(self) -> int:
        px, py, pz = self.proc_grid
        return px * py * pz

    def rank_of_coords(self, coords: tuple[int, int, int]) -> int:
        px, py, pz = self.proc_grid
        ix, iy, iz = coords
        if not (0 <= ix < px and 0 <= iy < py and 0 <= iz < pz):
            raise IndexError(f"coords {coords} out of process grid {self.proc_grid}")
        return ix + px * (iy + py * iz)

    def coords_of_rank(self, rank: int) -> tuple[int, int, int]:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.n_ranks})")
        px, py, _pz = self.proc_grid
        ix = rank % px
        iy = (rank // px) % py
        iz = rank // (px * py)
        return (ix, iy, iz)

    def block(self, rank: int) -> Block3D:
        coords = self.coords_of_rank(rank)
        lo = tuple(self._starts[a][coords[a]] for a in range(3))
        hi = tuple(self._starts[a][coords[a] + 1] for a in range(3))
        return Block3D(rank=rank, coords=coords, lo=lo, hi=hi)  # type: ignore[arg-type]

    def blocks(self) -> list[Block3D]:
        """Every rank's (frozen) block in rank order, as a fresh list."""
        if self._blocks is None:
            self._blocks = [self.block(r) for r in range(self.n_ranks)]
        return list(self._blocks)

    def shape_groups(self) -> list[tuple[int, ...]]:
        """The ranks grouped by block shape, each group in rank order: one
        group for an even split, up to eight for a near-even one. The
        blocks of a group stack into one array with the ranks as its
        leading axis."""
        if self._shape_groups is None:
            groups: dict[tuple[int, int, int], list[int]] = {}
            for b in self.blocks():
                groups.setdefault(b.shape, []).append(b.rank)
            self._shape_groups = [tuple(ranks) for ranks in groups.values()]
        return list(self._shape_groups)

    def rank_containing(self, point: tuple[int, int, int]) -> int:
        """Rank owning a global grid point."""
        coords = []
        for a in range(3):
            if not 0 <= point[a] < self.global_shape[a]:
                raise IndexError(f"point {point} outside grid {self.global_shape}")
            coords.append(int(np.searchsorted(self._starts[a], point[a], side="right")) - 1)
        return self.rank_of_coords(tuple(coords))  # type: ignore[arg-type]

    def neighbors(self, rank: int) -> list[int]:
        """Face/edge/corner-adjacent ranks (26-neighborhood, no wraparound)."""
        px, py, pz = self.proc_grid
        ix, iy, iz = self.coords_of_rank(rank)
        out = []
        for dx, dy, dz in product((-1, 0, 1), repeat=3):
            if dx == dy == dz == 0:
                continue
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if 0 <= jx < px and 0 <= jy < py and 0 <= jz < pz:
                out.append(self.rank_of_coords((jx, jy, jz)))
        return out

    def scatter(self, field: np.ndarray) -> list[np.ndarray]:
        """Split a global field into per-rank copies (rank order)."""
        if field.shape[:3] != self.global_shape:
            raise ValueError(
                f"field shape {field.shape[:3]} != decomposition {self.global_shape}"
            )
        return [np.ascontiguousarray(field[b.slices]) for b in self.blocks()]

    def gather(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank blocks into a global field."""
        if len(parts) != self.n_ranks:
            raise ValueError(f"expected {self.n_ranks} parts, got {len(parts)}")
        trailing = parts[0].shape[3:]
        out = np.empty(self.global_shape + trailing, dtype=parts[0].dtype)
        for b, part in zip(self.blocks(), parts):
            if part.shape[:3] != b.shape:
                raise ValueError(
                    f"rank {b.rank}: part shape {part.shape[:3]} != block {b.shape}"
                )
            out[b.slices] = part
        return out

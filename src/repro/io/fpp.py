"""The Lustre timing model of file-per-process checkpoints.

"For the present experiments data read/write is done on a
single-file-per-process basis, which achieves near peak I/O bandwidths
over a wide range of core counts" (§V).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.lustre import LustreModel


@dataclass(frozen=True)
class IOTimeModel:
    """Charges the Lustre model for a checkpoint's bytes (Table I rows)."""

    filesystem: LustreModel

    def checkpoint_bytes(self, global_shape: tuple[int, int, int],
                         n_vars: int) -> int:
        """Bytes of one checkpoint of ``n_vars`` float64 variables."""
        nx, ny, nz = global_shape
        return nx * ny * nz * n_vars * 8

    def write_time(self, global_shape: tuple[int, int, int], n_vars: int,
                   n_ranks: int) -> float:
        return self.filesystem.write_time(
            self.checkpoint_bytes(global_shape, n_vars), n_ranks)

    def read_time(self, global_shape: tuple[int, int, int], n_vars: int,
                  n_ranks: int) -> float:
        return self.filesystem.read_time(
            self.checkpoint_bytes(global_shape, n_vars), n_ranks)

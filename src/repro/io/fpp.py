"""File-per-process dataset I/O + the Lustre timing model.

"For the present experiments data read/write is done on a
single-file-per-process basis, which achieves near peak I/O bandwidths
over a wide range of core counts" (§V). Each rank writes one BP file with
its block of every variable; a JSON index records the decomposition so
readers can reassemble or read any sub-box.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.io.bp import BPFile
from repro.machine.lustre import LustreModel
from repro.vmpi.decomp import BlockDecomposition3D

_INDEX_NAME = "index.json"


def write_file_per_process(root: str | os.PathLike,
                           decomp: BlockDecomposition3D,
                           parts: list[dict[str, np.ndarray]],
                           step: int = 0) -> int:
    """Write one BP file per rank under ``root``; returns bytes written."""
    if len(parts) != decomp.n_ranks:
        raise ValueError(f"expected {decomp.n_ranks} parts, got {len(parts)}")
    rootp = Path(root)
    rootp.mkdir(parents=True, exist_ok=True)
    var_names = list(parts[0]) if parts else []
    total = 0
    for b, part in zip(decomp.blocks(), parts):
        if list(part) != var_names:
            raise ValueError(f"rank {b.rank} variable set differs from rank 0")
        path = rootp / f"rank{b.rank:06d}.bp"
        with BPFile.create(path, attrs={"rank": b.rank, "step": step,
                                        "lo": list(b.lo), "hi": list(b.hi)}) as bp:
            for name, arr in part.items():
                if arr.shape[:3] != b.shape:
                    raise ValueError(
                        f"rank {b.rank} var {name!r} shape {arr.shape} != "
                        f"block {b.shape}")
                bp.write(name, arr)
        total += path.stat().st_size
    index = {
        "global_shape": list(decomp.global_shape),
        "proc_grid": list(decomp.proc_grid),
        "variables": var_names,
        "step": step,
        "n_ranks": decomp.n_ranks,
    }
    (rootp / _INDEX_NAME).write_text(json.dumps(index))
    return total


def read_file_per_process(root: str | os.PathLike, variable: str) -> np.ndarray:
    """Reassemble one variable's global field from a file-per-process set."""
    rootp = Path(root)
    index_path = rootp / _INDEX_NAME
    if not index_path.exists():
        raise FileNotFoundError(f"no {_INDEX_NAME} under {root}")
    index = json.loads(index_path.read_text())
    decomp = BlockDecomposition3D(tuple(index["global_shape"]),
                                  tuple(index["proc_grid"]))
    if variable not in index["variables"]:
        raise KeyError(
            f"variable {variable!r} not in dataset; has {index['variables']}")
    parts = []
    for b in decomp.blocks():
        bp = BPFile.open(rootp / f"rank{b.rank:06d}.bp")
        parts.append(bp.read(variable))
    return decomp.gather(parts)


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

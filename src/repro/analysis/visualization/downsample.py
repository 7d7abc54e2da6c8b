"""The hybrid visualization mode: in-situ down-sampling + in-transit render.

In-situ, each rank takes every ``stride``-th grid point of its brick
(Fig. 2 uses every 8th) — a tiny, cheap copy that is shipped to a single
staging core. In-transit, that core builds a *look-up table* recording
each block's global bounds "to encode their spatial relationship", and
ray-casts directly against the collection: each sample position is routed
to its block via the LUT and reads the nearest down-sampled voxel — no
visibility sorting, no volume reconstruction (§III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.transfer_function import TransferFunction
from repro.analysis.visualization.volume_render import (
    march_rays,
    reject_nonfinite,
)
from repro.vmpi.decomp import BlockDecomposition3D


@dataclass(frozen=True)
class DownsampledBlock:
    """One rank's down-sampled brick plus its placement metadata."""

    data: np.ndarray                  # (ceil(sx/stride), ...) samples
    lo: tuple[int, int, int]          # global bounds of the source brick
    hi: tuple[int, int, int]
    stride: int

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        expect = tuple(-(-(h - l) // self.stride)
                       for l, h in zip(self.lo, self.hi))
        if self.data.shape != expect:
            raise ValueError(
                f"data shape {self.data.shape} != expected {expect} for "
                f"bounds {self.lo}..{self.hi} at stride {self.stride}")

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


def downsample_block(block_data: np.ndarray, lo: tuple[int, int, int],
                     hi: tuple[int, int, int], stride: int) -> DownsampledBlock:
    """The in-situ stage: every ``stride``-th point of the brick."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    data = np.ascontiguousarray(block_data[::stride, ::stride, ::stride],
                                dtype=np.float64)
    return DownsampledBlock(data=data, lo=tuple(lo), hi=tuple(hi), stride=stride)


def downsample_decomposed(field: np.ndarray, decomp: BlockDecomposition3D,
                          stride: int) -> list[DownsampledBlock]:
    """Run the in-situ stage for every rank of a decomposition."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != decomp.global_shape:
        raise ValueError(
            f"field shape {field.shape} != decomposition {decomp.global_shape}")
    return [downsample_block(field[b.slices], b.lo, b.hi, stride)
            for b in decomp.blocks()]


class BlockLUT:
    """The in-transit look-up table: block bounds -> received block data.

    Built once when all down-sampled blocks arrive; routes any global
    sample position to the owning block and its nearest retained voxel.
    """

    def __init__(self, blocks: list[DownsampledBlock],
                 global_shape: tuple[int, int, int]) -> None:
        if not blocks:
            raise ValueError("LUT needs at least one block")
        strides = {b.stride for b in blocks}
        if len(strides) != 1:
            raise ValueError(f"blocks disagree on stride: {sorted(strides)}")
        self.stride = blocks[0].stride
        self.global_shape = tuple(global_shape)
        self.blocks = list(blocks)
        # Regular rectilinear layout: per-axis sorted unique cut positions.
        self._axis_starts = [
            np.array(sorted({b.lo[a] for b in blocks}), dtype=np.int64)
            for a in range(3)
        ]
        index_shape = tuple(len(s) for s in self._axis_starts)
        self._index = np.full(index_shape, -1, dtype=np.int64)
        for k, b in enumerate(blocks):
            cell = tuple(int(np.searchsorted(self._axis_starts[a], b.lo[a]))
                         for a in range(3))
            if self._index[cell] != -1:
                raise ValueError(f"two blocks share origin {b.lo}")
            self._index[cell] = k
        if np.any(self._index < 0):
            raise ValueError("blocks do not form a full rectilinear layout")
        # Retained extent of each slab of blocks along the axis that
        # numbers it; blocks abreast of each other must agree on it.
        self._axis_dims = []
        for axis in range(3):
            slabs = np.moveaxis(self._index, axis, 0).reshape(
                index_shape[axis], -1)
            dims = np.array([[blocks[k].data.shape[axis] for k in slab]
                             for slab in slabs], dtype=np.int64)
            if np.any(dims != dims[:, :1]):
                raise ValueError(
                    f"blocks abreast along axis {axis} disagree on extent")
            self._axis_dims.append(dims[:, 0])

    def sampler(self):
        """Nearest-retained-voxel sampler over the full global domain.

        Routing is pure geometry, so it is tabulated once per axis: cell
        coordinate -> block coordinate, and cell coordinate -> index of
        the nearest retained voxel inside that block. A sample then costs
        a few gathers from tables of ``nx + ny + nz`` entries plus one
        read of the packed block data — still no volume reconstruction.
        """
        shape = np.asarray(self.global_shape, dtype=np.float64)
        # Pack per-block data into one flat buffer for vectorised gathers.
        sizes = [b.data.size for b in self.blocks]
        block_offset = np.cumsum([0] + sizes[:-1])[self._index]
        flat = np.concatenate([b.data.ravel() for b in self.blocks])
        block_coord = []
        local = []
        extent = []
        for starts, dims, n in zip(self._axis_starts, self._axis_dims,
                                   self.global_shape):
            cells = np.arange(n)
            coord = np.searchsorted(starts, cells, side="right") - 1
            block_coord.append(coord)
            local.append(np.minimum((cells - starts[coord]) // self.stride,
                                    dims[coord] - 1))
            extent.append(dims[coord])
        bx, by, bz = block_coord
        lx, ly, lz = local
        _, ny, nz = extent

        def sample(pos: np.ndarray) -> np.ndarray:
            cell = np.rint(np.clip(pos, 0.0, shape - 1.0)).astype(np.int64)
            cx, cy, cz = cell[..., 0], cell[..., 1], cell[..., 2]
            return flat[block_offset[bx[cx], by[cy], bz[cz]]
                        + (lx[cx] * ny[cy] + ly[cy]) * nz[cz] + lz[cz]]

        return sample


def render_intransit(blocks: list[DownsampledBlock],
                     global_shape: tuple[int, int, int], camera: Camera,
                     tf: TransferFunction, step: float = 0.5
                     ) -> np.ndarray:
    """The serial in-transit renderer (one staging bucket).

    Marches the *same* rays as the in-situ mode over the full-resolution
    domain, sampling the down-sampled data through the LUT.
    """
    for k, b in enumerate(blocks):
        reject_nonfinite(b.data, f"block {k}")
    lut = BlockLUT(blocks, global_shape)
    rgb, _alpha = march_rays(lut.sampler(), global_shape,
                             camera.rays(global_shape), tf, step)
    return rgb

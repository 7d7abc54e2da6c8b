"""The fully in-situ parallel renderer: per-block ray casting + compositing.

Each rank ray-casts only the samples that fall inside its own brick (using
one ghost layer on the high faces so trilinear interpolation at internal
block boundaries is exact), producing a partial (premultiplied RGB, alpha)
image. Partials are alpha-composited front-to-back in *block visibility
order* — for a rectilinear decomposition under parallel projection, any
linear extension of the per-axis ordering induced by the view direction is
a correct visibility order; we use the signed sum of block grid
coordinates.

Tests assert the composited result matches the serial reference renderer
to floating-point-reassociation tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.transfer_function import TransferFunction
from repro.analysis.visualization.volume_render import (
    base_cell,
    march_rays,
    reject_nonfinite,
)
from repro.vmpi.decomp import Block3D, BlockDecomposition3D


def block_with_hi_ghost(field: np.ndarray, block: Block3D) -> np.ndarray:
    """The rank's brick plus one ghost layer on each high face (clipped at
    the domain edge) — exactly what trilinear sampling of owned cells needs."""
    n = field.shape
    sl = tuple(slice(lo, min(hi + 1, n[a])) for a, (lo, hi)
               in enumerate(zip(block.lo, block.hi)))
    return np.ascontiguousarray(field[sl])


def _block_sampler(block_data: np.ndarray, lo: tuple[int, int, int],
                   hi: tuple[int, int, int], global_shape: tuple[int, int, int]):
    """Sampler + ownership predicate replicating the serial arithmetic.

    The base cell index ``i0`` is computed exactly as the serial sampler
    does; the rank owns a sample iff ``i0`` lies in its brick. Owned
    samples then interpolate from the ghosted block and are bit-identical
    to the serial renderer's values.
    """
    shape = np.asarray(global_shape, dtype=np.float64)
    lo_arr = np.asarray(lo, dtype=np.int64)
    hi_arr = np.asarray(hi, dtype=np.int64)

    def sample(pos: np.ndarray) -> np.ndarray:
        i0, frac = base_cell(pos, shape)
        local = np.clip(i0 - lo_arr, 0,
                        np.asarray(block_data.shape) - 2)
        x0, y0, z0 = local[..., 0], local[..., 1], local[..., 2]
        fx, fy, fz = frac[..., 0], frac[..., 1], frac[..., 2]
        c00 = block_data[x0, y0, z0] * (1 - fx) + block_data[x0 + 1, y0, z0] * fx
        c10 = block_data[x0, y0 + 1, z0] * (1 - fx) + block_data[x0 + 1, y0 + 1, z0] * fx
        c01 = block_data[x0, y0, z0 + 1] * (1 - fx) + block_data[x0 + 1, y0, z0 + 1] * fx
        c11 = block_data[x0, y0 + 1, z0 + 1] * (1 - fx) + block_data[x0 + 1, y0 + 1, z0 + 1] * fx
        c0 = c00 * (1 - fy) + c10 * fy
        c1 = c01 * (1 - fy) + c11 * fy
        return c0 * (1 - fz) + c1 * fz

    def owned(pos: np.ndarray) -> np.ndarray:
        i0, _frac = base_cell(pos, shape)
        return np.all((i0 >= lo_arr) & (i0 < hi_arr), axis=-1)

    return sample, owned


def visibility_order(decomp: BlockDecomposition3D, direction: np.ndarray
                     ) -> list[int]:
    """Front-to-back rank order: signed sum of block grid coordinates.

    Monotone with respect to the per-axis partial order induced by the
    view direction, hence a valid visibility order for rectilinear bricks
    under parallel projection.
    """
    keys = []
    for b in decomp.blocks():
        key = sum(np.sign(direction[a]) * b.coords[a] for a in range(3))
        keys.append((key, b.rank))
    keys.sort()
    return [rank for _key, rank in keys]


def render_block_partial(field: np.ndarray, block: Block3D,
                         global_shape: tuple[int, int, int],
                         rays: tuple[np.ndarray, np.ndarray, float],
                         tf: TransferFunction, step: float = 0.5
                         ) -> tuple[np.ndarray, np.ndarray]:
    """One rank's in-situ stage: partial (premultiplied RGB, alpha) image
    along ``rays`` (``Camera.rays(global_shape)``)."""
    data = block_with_hi_ghost(field, block)
    sampler, owned = _block_sampler(data, block.lo, block.hi, global_shape)
    return march_rays(sampler, global_shape, rays, tf, step,
                      sample_mask=owned)


def composite_partials(partials: list[tuple[np.ndarray, np.ndarray]],
                       order: list[int]) -> np.ndarray:
    """Front-to-back 'over' compositing of per-rank partial images, on
    a black background."""
    if not partials:
        raise ValueError("no partial images to composite")
    h, w, _ = partials[0][0].shape
    rgb = np.zeros((h, w, 3))
    alpha = np.zeros((h, w))
    for rank in order:
        prgb, palpha = partials[rank]
        weight = (1.0 - alpha)
        rgb += weight[..., None] * prgb
        alpha += weight * palpha
    return rgb


def render_blocks_insitu(field: np.ndarray, decomp: BlockDecomposition3D,
                         camera: Camera, tf: TransferFunction,
                         step: float = 0.5) -> np.ndarray:
    """The full in-situ mode: every rank renders, then composite."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != decomp.global_shape:
        raise ValueError(
            f"field shape {field.shape} != decomposition {decomp.global_shape}")
    reject_nonfinite(field)
    rays = camera.rays(decomp.global_shape)
    partials = [render_block_partial(field, b, decomp.global_shape, rays, tf,
                                     step)
                for b in decomp.blocks()]
    return composite_partials(partials, visibility_order(decomp, rays[1]))

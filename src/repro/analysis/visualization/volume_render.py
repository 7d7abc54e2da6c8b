"""Ray-marching kernels shared by all rendering modes.

Front-to-back alpha compositing with trilinear sampling. The marcher
handles only the samples that fall inside the volume: it finds them for
every ray and step at once, classifies them in one batch, then
composites step by step over just those, with early-out once every ray
saturates.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.transfer_function import TransferFunction

#: Sampler signature: (N, 3) float positions -> (N,) values. The marcher
#: hands a sampler only positions inside the volume.
Sampler = Callable[[np.ndarray], np.ndarray]


def reject_nonfinite(field: np.ndarray, what: str = "field") -> None:
    """Raise if ``field`` holds NaN or ±inf, naming the first by flat
    index: one such value turns every ray that samples near it NaN."""
    bad = ~np.isfinite(field)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{what} value at flat index {i} is "
                         f"{field.flat[i]}: a render needs finite values")


def base_cell(pos: np.ndarray, shape: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Base cell index and in-cell fraction of each position clamped into
    a grid of ``shape``: every trilinear sampler's arithmetic, one copy."""
    p = np.clip(pos, 0.0, shape - 1.0)
    i0 = np.minimum(p.astype(np.int64), (shape - 2).astype(np.int64))
    i0 = np.maximum(i0, 0)
    return i0, p - i0


def trilinear_sampler(field: np.ndarray) -> Sampler:
    """Trilinear interpolation on a dense grid, clamped at the borders;
    an axis of extent 1 reads its single layer as both neighbours."""
    field = np.asarray(field, dtype=np.float64)
    shape = np.asarray(field.shape, dtype=np.float64)
    top = np.asarray(field.shape, dtype=np.int64) - 1

    def sample(pos: np.ndarray) -> np.ndarray:
        i0, frac = base_cell(pos, shape)
        i1 = np.minimum(i0 + 1, top)
        x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
        x1, y1, z1 = i1[..., 0], i1[..., 1], i1[..., 2]
        fx, fy, fz = frac[..., 0], frac[..., 1], frac[..., 2]
        c00 = field[x0, y0, z0] * (1 - fx) + field[x1, y0, z0] * fx
        c10 = field[x0, y1, z0] * (1 - fx) + field[x1, y1, z0] * fx
        c01 = field[x0, y0, z1] * (1 - fx) + field[x1, y0, z1] * fx
        c11 = field[x0, y1, z1] * (1 - fx) + field[x1, y1, z1] * fx
        c0 = c00 * (1 - fy) + c10 * fy
        c1 = c01 * (1 - fy) + c11 * fy
        return c0 * (1 - fz) + c1 * fz

    return sample


def march_rays(sampler: Sampler, shape: tuple[int, int, int],
               rays: tuple[np.ndarray, np.ndarray, float],
               tf: TransferFunction, step: float = 0.5,
               sample_mask: Callable[[np.ndarray], np.ndarray] | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Front-to-back composite along parallel rays through a volume of
    ``shape``.

    ``rays`` is ``Camera.rays(shape)``. Returns ``(rgb (H, W, 3), alpha
    (H, W))``. Only samples strictly inside the volume (``-0.5 < p <
    n - 0.5`` on every axis) are sampled and composited; a sample outside
    it would add exactly zero. ``sample_mask``, when given, is a boolean
    predicate on those positions keeping the samples a region owns — the
    hook block-parallel rendering uses to restrict a rank to its brick.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    origins, direction, t_len = rays
    h, w, _ = origins.shape
    flat_origins = origins.reshape(-1, 3)
    t = np.arange(int(np.ceil(t_len / step))) * step
    keep = np.ones((t.size, h * w), dtype=bool)
    for a, n in enumerate(shape):
        p = flat_origins[:, a] + (t * direction[a])[:, None]
        keep &= (p > -0.5) & (p < n - 0.5)
    # Step-major (step, ray) pairs, positions as origin + t * direction:
    # the same two roundings a step-by-step march performs.
    ks, ray = np.nonzero(keep)
    pos = flat_origins[ray] + t[ks][:, None] * direction
    if sample_mask is not None:
        owned = sample_mask(pos)
        ks, ray, pos = ks[owned], ray[owned], pos[owned]
    rgba = tf(sampler(pos))
    a = 1.0 - np.power(1.0 - rgba[:, 3], step)  # per-step opacity
    rgb = np.zeros((h * w, 3))
    alpha = np.zeros(h * w)
    edges = np.searchsorted(ks, np.arange(t.size + 1)).tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        r = ray[lo:hi]
        weight = (1.0 - alpha[r]) * a[lo:hi]
        rgb[r] += weight[:, None] * rgba[lo:hi, :3]
        alpha[r] += weight
        # Early out only once every ray is numerically opaque — a looser
        # threshold would make results depend on compositing grouping.
        if np.all(alpha >= 1.0 - 1e-12):
            break
    return rgb.reshape(h, w, 3), alpha.reshape(h, w)


def render_volume(field: np.ndarray, camera: Camera, tf: TransferFunction,
                  step: float = 0.5) -> np.ndarray:
    """Serial reference renderer on a dense global field.

    Returns an ``(H, W, 3)`` image in [0, 1] on a black background.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ValueError(f"expected a 3-D field, got shape {field.shape}")
    reject_nonfinite(field)
    rgb, _alpha = march_rays(trilinear_sampler(field), field.shape,
                             camera.rays(field.shape), tf, step)
    return rgb

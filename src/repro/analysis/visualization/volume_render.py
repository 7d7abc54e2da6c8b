"""Ray-marching kernels shared by all rendering modes.

Front-to-back alpha compositing with trilinear sampling. The marcher is
vectorised over all pixels at once: at each step every live ray samples
the volume and composites, with early-out once every ray saturates.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.transfer_function import TransferFunction

#: Sampler signature: (N, 3) float positions -> (N,) values; positions
#: outside the volume must return a value the transfer function maps to
#: zero opacity (samplers here clamp and mask instead).
Sampler = Callable[[np.ndarray], np.ndarray]


def trilinear_sampler(field: np.ndarray) -> Sampler:
    """Trilinear interpolation on a dense grid, clamped at the borders.

    Positions outside the volume are masked to the field minimum (which a
    well-formed transfer function maps to zero opacity).
    """
    field = np.asarray(field, dtype=np.float64)
    shape = np.asarray(field.shape, dtype=np.float64)
    fill = float(field.min())

    def sample(pos: np.ndarray) -> np.ndarray:
        pos = np.asarray(pos, dtype=np.float64)
        inside = np.all((pos > -0.5) & (pos < shape - 0.5), axis=-1)
        p = np.clip(pos, 0.0, shape - 1.0)
        i0 = np.minimum(p.astype(np.int64), (shape - 2).astype(np.int64))
        i0 = np.maximum(i0, 0)
        frac = p - i0
        x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
        fx, fy, fz = frac[..., 0], frac[..., 1], frac[..., 2]
        c000 = field[x0, y0, z0]
        c100 = field[x0 + 1, y0, z0]
        c010 = field[x0, y0 + 1, z0]
        c110 = field[x0 + 1, y0 + 1, z0]
        c001 = field[x0, y0, z0 + 1]
        c101 = field[x0 + 1, y0, z0 + 1]
        c011 = field[x0, y0 + 1, z0 + 1]
        c111 = field[x0 + 1, y0 + 1, z0 + 1]
        c00 = c000 * (1 - fx) + c100 * fx
        c10 = c010 * (1 - fx) + c110 * fx
        c01 = c001 * (1 - fx) + c101 * fx
        c11 = c011 * (1 - fx) + c111 * fx
        c0 = c00 * (1 - fy) + c10 * fy
        c1 = c01 * (1 - fy) + c11 * fy
        out = c0 * (1 - fz) + c1 * fz
        return np.where(inside, out, fill)

    return sample


def march_rays(sampler: Sampler, origins: np.ndarray, direction: np.ndarray,
               t_len: float, tf: TransferFunction, step: float = 0.5,
               sample_mask: Callable[[np.ndarray], np.ndarray] | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Front-to-back composite along parallel rays.

    Returns ``(rgb (H, W, 3), alpha (H, W))``. ``sample_mask``, when
    given, zeroes the contribution of samples outside a region — the hook
    block-parallel rendering uses to restrict a rank to its own brick.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    h, w, _ = origins.shape
    rgb = np.zeros((h, w, 3))
    alpha = np.zeros((h, w))
    flat_origins = origins.reshape(-1, 3)
    n_steps = int(np.ceil(t_len / step))
    for k in range(n_steps):
        t = k * step
        pos = flat_origins + t * direction
        vals = sampler(pos)
        rgba = tf(vals)
        a = 1.0 - np.power(1.0 - rgba[..., 3], step)  # per-step opacity
        if sample_mask is not None:
            a = a * sample_mask(pos)
        a = a.reshape(h, w)
        color = rgba[..., :3].reshape(h, w, 3)
        weight = (1.0 - alpha) * a
        rgb += weight[..., None] * color
        alpha += weight
        # Early out only once every ray is numerically opaque — a looser
        # threshold would make results depend on compositing grouping.
        if np.all(alpha >= 1.0 - 1e-12):
            break
    return rgb, alpha


def render_volume(field: np.ndarray, camera: Camera, tf: TransferFunction,
                  step: float = 0.5) -> np.ndarray:
    """Serial reference renderer on a dense global field.

    Returns an ``(H, W, 3)`` image in [0, 1] on a black background.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ValueError(f"expected a 3-D field, got shape {field.shape}")
    origins, direction, t_len = camera.rays(field.shape)
    shape = np.asarray(field.shape, dtype=np.float64)

    def inside_domain(pos: np.ndarray) -> np.ndarray:
        return np.all((pos > -0.5) & (pos < shape - 0.5), axis=-1).astype(np.float64)

    rgb, _alpha = march_rays(trilinear_sampler(field), origins, direction,
                             t_len, tf, step, sample_mask=inside_domain)
    return rgb

"""Divergence-free synthetic turbulence (random Fourier modes).

Kraichnan-style synthesis: a sum of random solenoidal Fourier modes with a
prescribed energy spectrum ``E(k) ~ k^4 exp(-2 (k/k0)^2)`` (a standard
von Karman-like low-Re model). Used for the jet's background velocity and
for the fine vortical structures Fig. 1 tracks.
"""

from __future__ import annotations

import numpy as np

from repro.sim.grid import StructuredGrid3D
from repro.util.rng import seeded_rng


#: Random Fourier modes summed, and where the model spectrum peaks.
_N_MODES = 32
_PEAK_WAVENUMBER = 4.0


def synthetic_turbulence(grid: StructuredGrid3D, rms_velocity: float = 1.0,
                         seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return a divergence-free velocity field ``(u, v, w)``.

    Each mode contributes ``a x k_hat * cos(k . x + phi)``; since the
    amplitude is perpendicular to the wavevector, the field is exactly
    solenoidal (checked by tests via the discrete divergence).
    """
    if rms_velocity < 0:
        raise ValueError(f"rms_velocity must be >= 0, got {rms_velocity}")
    rng = seeded_rng(seed)
    # The 1-D axes, shaped to broadcast: a mode's phase is built from them
    # in the meshgrid formula's association order, so it is bit-identical
    # to ``k . X + phi`` over three full coordinate arrays.
    x, y, z = grid.axes()
    x, y, z = x[:, None, None], y[None, :, None], z[None, None, :]
    u = np.zeros(grid.shape)
    v = np.zeros(grid.shape)
    w = np.zeros(grid.shape)

    # Sample wavenumber magnitudes from the model spectrum.
    k_mags = rng.gamma(shape=2.5, scale=_PEAK_WAVENUMBER / 2.5, size=_N_MODES)
    two_pi_over_L = [2.0 * np.pi / length for length in grid.lengths]
    for m in range(_N_MODES):
        # Random direction; quantise to integer mode numbers so the field
        # is exactly periodic on the grid.
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        n_ints = np.rint(k_mags[m] * direction).astype(int)
        if not n_ints.any():
            n_ints[int(rng.integers(3))] = 1
        k_vec = np.array([n_ints[a] * two_pi_over_L[a] for a in range(3)])
        k_hat = k_vec / np.linalg.norm(k_vec)

        # Solenoidal amplitude: random vector projected off k_hat.
        a = rng.normal(size=3)
        a -= np.dot(a, k_hat) * k_hat
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            continue
        a /= norm
        phase = rng.uniform(0.0, 2.0 * np.pi)
        # A mode with a zero wavenumber component is constant along that
        # axis: leaving the axis out builds the envelope on one layer
        # there (the sums broadcast it), so the cosine runs once per
        # distinct phase. A zero term adds exactly nothing, so the sum
        # keeps the full formula's bits.
        envelope = None
        for k, axis in zip(k_vec, (x, y, z)):
            if k:
                term = k * axis
                envelope = term if envelope is None else envelope + term
        envelope += phase
        np.cos(envelope, out=envelope)
        u += a[0] * envelope
        v += a[1] * envelope
        w += a[2] * envelope

    # Normalise to the requested rms.
    rms = np.sqrt(np.mean(u * u + v * v + w * w))
    if rms > 0 and rms_velocity > 0:
        scale = rms_velocity / rms
        u *= scale
        v *= scale
        w *= scale
    elif rms_velocity == 0:
        u[:] = v[:] = w[:] = 0.0
    return u, v, w

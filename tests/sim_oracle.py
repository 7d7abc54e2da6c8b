"""Differential oracle for the S3D proxy solver.

The oracle is the global-grid solver the package once shipped beside the
block-parallel one: the whole periodic field advanced with operators
that wrap through ``np.roll``, with no decomposition, ghost padding or
rank stacking. The solver under test reads the same stencil operands
from ghost-padded blocks through slice views, in the same operation
order, so every state it reaches must equal the oracle's bit for bit.
The initial turbulence is held to its meshgrid formula the same way.
"""

from __future__ import annotations

import numpy as np

from repro.sim import SPECIES_NAMES, ArrheniusChemistry, SolverParams
from repro.util.rng import seeded_rng

_RADICALS = ("H", "O", "OH", "HO2", "H2O2")


def gradient(f, spacing):
    """Second-order central gradient with periodic wrap."""
    return tuple((np.roll(f, -1, axis) - np.roll(f, 1, axis))
                 / (2.0 * spacing[axis]) for axis in range(3))


def laplacian(f, spacing):
    """Second-order 7-point Laplacian with periodic wrap."""
    out = np.zeros_like(f)
    for axis in range(3):
        h2 = spacing[axis] ** 2
        out += (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / h2
    return out


def upwind_advection(f, velocity, spacing):
    """First-order upwind ``-(u . grad f)`` with periodic wrap."""
    dfdt = np.zeros_like(f)
    for axis, u in enumerate(velocity):
        h = spacing[axis]
        fwd = (np.roll(f, -1, axis) - f) / h
        bwd = (f - np.roll(f, 1, axis)) / h
        dfdt -= np.where(u > 0, u * bwd, u * fwd)
    return dfdt


def synthetic_turbulence(grid, rms_velocity=1.0, seed=0):
    """The turbulence synthesis over three full meshgrids: each mode's
    phase is ``k . X + phi`` on the ``(X, Y, Z)`` coordinate arrays. The
    package builds the same sum from the broadcast 1-D axes."""
    rng = seeded_rng(seed)
    X, Y, Z = grid.meshgrid()
    u, v, w = np.zeros(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)
    k_mags = rng.gamma(shape=2.5, scale=4.0 / 2.5, size=32)
    two_pi_over_L = [2.0 * np.pi / length for length in grid.lengths]
    for m in range(32):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        n_ints = np.rint(k_mags[m] * direction).astype(int)
        if not n_ints.any():
            n_ints[int(rng.integers(3))] = 1
        k_vec = np.array([n_ints[a] * two_pi_over_L[a] for a in range(3)])
        k_hat = k_vec / np.linalg.norm(k_vec)
        a = rng.normal(size=3)
        a -= np.dot(a, k_hat) * k_hat
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            continue
        a /= norm
        phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = np.cos(k_vec[0] * X + k_vec[1] * Y + k_vec[2] * Z + phase)
        u += a[0] * envelope
        v += a[1] * envelope
        w += a[2] * envelope
    rms = np.sqrt(np.mean(u * u + v * v + w * w))
    if rms > 0 and rms_velocity > 0:
        scale = rms_velocity / rms
        u *= scale
        v *= scale
        w *= scale
    elif rms_velocity == 0:
        u[:] = v[:] = w[:] = 0.0
    return u, v, w


def _rhs(state, spacing, chemistry, params):
    velocity = (state["u"], state["v"], state["w"])
    dT_chem, dY_chem = chemistry.source_terms(
        state["T"], {s: state[s] for s in SPECIES_NAMES})
    rhs = {"T": (upwind_advection(state["T"], velocity, spacing)
                 + params.thermal_diffusivity
                 * laplacian(state["T"], spacing)
                 + dT_chem)}
    for s in SPECIES_NAMES:
        r = (upwind_advection(state[s], velocity, spacing)
             + params.species_diffusivity * laplacian(state[s], spacing)
             + dY_chem[s])
        if s in _RADICALS:
            r = r - params.radical_decay * state[s]
        rhs[s] = r
    return rhs


class OracleS3D:
    """The global periodic solver; ``fields`` is advanced in place."""

    def __init__(self, case, params=None):
        self.case = case
        self.chemistry = ArrheniusChemistry()
        self.params = params or SolverParams()
        self.fields = case.initial_fields()
        max_speed = max(float(np.max(np.abs(self.fields[c])))
                        for c in ("u", "v", "w"))
        self.dt = self.params.resolve_dt(case.grid, max_speed)
        self.step_count = 0
        self.kernel_history = []

    def step(self, n=1):
        spacing, dt = self.case.grid.spacing, self.dt
        for _ in range(n):
            for center in self.case.ignite_kernels(
                    self.fields, self.case.draw_kernel_count()):
                self.kernel_history.append((self.step_count, center))
            state = {name: self.fields[name] for name in self.fields.names}
            rhs = _rhs(state, spacing, self.chemistry, self.params)
            state["T"] += dt * rhs["T"]
            np.maximum(state["T"], 1e-3, out=state["T"])
            for s in SPECIES_NAMES:
                state[s] += dt * rhs[s]
                np.clip(state[s], 0.0, 1.0, out=state[s])
            self.step_count += 1
        return self.fields

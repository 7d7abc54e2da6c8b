"""Differential oracle for the S3D proxy solver.

The oracle is the global-grid solver the package once shipped beside the
block-parallel one: the whole periodic field advanced with operators
that wrap through ``np.roll``, with no decomposition, ghost padding or
rank stacking. The solver under test reads the same stencil operands
from ghost-padded blocks through slice views, in the same operation
order, so every state it reaches must equal the oracle's bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sim import SPECIES_NAMES, ArrheniusChemistry, SolverParams

_RADICALS = ("H", "O", "OH", "HO2", "H2O2")
_TRANSPORTED = ("T",) + SPECIES_NAMES


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
            if self.params.integrator == "rk2":
                mid = {c: state[c] for c in ("u", "v", "w")}
                for name in _TRANSPORTED:
                    mid[name] = state[name] + dt * rhs[name]
                rhs2 = _rhs(mid, spacing, self.chemistry, self.params)
                rhs = {name: 0.5 * (rhs[name] + rhs2[name]) for name in rhs}
            state["T"] += dt * rhs["T"]
            np.maximum(state["T"], 1e-3, out=state["T"])
            for s in SPECIES_NAMES:
                state[s] += dt * rhs[s]
                np.clip(state[s], 0.0, 1.0, out=state[s])
            self.step_count += 1
        return self.fields

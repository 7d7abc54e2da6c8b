"""The lifted hydrogen jet flame configuration (paper §V, [52]).

A cold fuel jet (H2 diluted in N2) issues in +x into a heated air coflow.
Ignition kernels form *intermittently* near the flame base — the transient
features whose tracking motivates the whole framework — modeled here as
stochastic small hot spots seeded in the mixing layer where the mixture is
flammable, which then grow or dissipate under the solver's dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.chemistry import ArrheniusChemistry
from repro.sim.fields import FieldSet
from repro.sim.grid import StructuredGrid3D
from repro.sim.turbulence import synthetic_turbulence
from repro.util.rng import seeded_rng


@dataclass
class LiftedFlameCase:
    """Initial condition + ignition-kernel forcing for the jet flame."""

    grid: StructuredGrid3D
    jet_velocity: float = 2.0
    coflow_velocity: float = 0.5
    jet_radius_fraction: float = 0.15      # of min(Ly, Lz)
    coflow_temperature: float = 1.0        # nondimensional reference
    jet_temperature: float = 0.4
    turbulence_rms: float = 0.35
    kernel_rate: float = 0.5               # expected kernels per step
    kernel_amplitude: float = 2.5          # peak T boost of a new kernel
    kernel_radius_cells: float = 3.0
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0 < self.jet_radius_fraction < 0.5:
            raise ValueError("jet_radius_fraction must be in (0, 0.5)")
        if self.kernel_rate < 0:
            raise ValueError("kernel_rate must be >= 0")
        self._rng = seeded_rng(self.seed, 1)

    # -- initial condition ----------------------------------------------------

    def initial_fields(self) -> FieldSet:
        """Jet profile + turbulence + quiescent chemistry."""
        grid = self.grid
        fs = FieldSet(grid)
        X, Y, Z = grid.meshgrid()
        _Lx, Ly, Lz = grid.lengths

        # Radial distance from the jet axis (centered in y, z).
        r = np.sqrt((Y - Ly / 2.0) ** 2 + (Z - Lz / 2.0) ** 2)
        radius = self.jet_radius_fraction * min(Ly, Lz)
        # Smooth tanh shear layer.
        jet = 0.5 * (1.0 - np.tanh((r - radius) / (0.25 * radius)))

        u_t, v_t, w_t = synthetic_turbulence(
            grid, rms_velocity=self.turbulence_rms, seed=self.seed)
        fs["u"] = self.coflow_velocity + (self.jet_velocity - self.coflow_velocity) * jet + u_t
        fs["v"] = v_t
        fs["w"] = w_t

        fs["T"] = self.coflow_temperature + (self.jet_temperature
                                             - self.coflow_temperature) * jet
        fs["P"] = np.ones(grid.shape)

        # Fuel in the jet (H2 diluted in N2), air outside (O2 + N2).
        fs["H2"] = 0.3 * jet
        fs["O2"] = 0.233 * (1.0 - jet)
        fs["N2"] = 1.0 - fs["H2"] - fs["O2"]
        for trace in ("H2O", "H", "O", "OH", "HO2", "H2O2"):
            fs[trace] = np.zeros(grid.shape)
        return fs

    # -- intermittent ignition kernels -------------------------------------------

    def flammable_mask(self, fs: FieldSet) -> np.ndarray:
        """Cells where both fuel and oxidiser are present (mixing layer)."""
        return (fs["H2"] > 0.02) & (fs["O2"] > 0.02)

    def draw_kernel_count(self) -> int:
        """This step's number of new kernels: the Poisson draw alone, so
        a caller that has to assemble ``fs`` first can skip the assembly
        on the steps that seed nothing."""
        return int(self._rng.poisson(self.kernel_rate))

    def ignite_kernels(self, fs: FieldSet, n_new: int
                       ) -> list[tuple[int, int, int]]:
        """Ignite ``n_new`` drawn kernels at random cells of the
        flammable mixing layer; returns their centers.

        Kernel lifetime under the solver dynamics is ~10 steps
        (advection + dissipation), matching the paper's "intermittent
        phenomena that occur on the order of 10 simulation timesteps".
        """
        if n_new == 0:
            return []
        mask = self.flammable_mask(fs)
        candidates = np.argwhere(mask)
        if candidates.size == 0:
            return []
        centers = []
        T = fs["T"]
        X, Y, Z = np.indices(self.grid.shape)
        for _ in range(n_new):
            cx, cy, cz = candidates[int(self._rng.integers(len(candidates)))]
            d2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
            bump = self.kernel_amplitude * np.exp(
                -d2 / (2.0 * self.kernel_radius_cells ** 2))
            np.maximum(T, self.coflow_temperature + bump, out=T)
            centers.append((int(cx), int(cy), int(cz)))
        return centers

"""Uniform structured 3-D grid with periodic topology."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StructuredGrid3D:
    """A uniform grid over ``[0, Lx) x [0, Ly) x [0, Lz)``, periodic.

    The solver treats all boundaries as periodic (the jet configuration
    places its structure well inside the domain), which keeps the explicit
    scheme simple and conservative.
    """

    shape: tuple[int, int, int]
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(n < 2 for n in self.shape):
            raise ValueError(f"shape must be 3 axes of >= 2 cells, got {self.shape}")
        if any(length <= 0 for length in self.lengths):
            raise ValueError(f"lengths must be positive, got {self.lengths}")

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(length / n for length, n in zip(self.lengths, self.shape))  # type: ignore[return-value]

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-center coordinates along each axis."""
        return tuple(
            (np.arange(n) + 0.5) * (length / n)
            for n, length in zip(self.shape, self.lengths)
        )  # type: ignore[return-value]

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full 3-D coordinate arrays (ij indexing; shape == grid shape)."""
        x, y, z = self.axes()
        return np.meshgrid(x, y, z, indexing="ij")  # type: ignore[return-value]

    def zeros(self, n_components: int | None = None) -> np.ndarray:
        shape = self.shape if n_components is None else (*self.shape, n_components)
        return np.zeros(shape, dtype=np.float64)

    def cfl_dt(self, max_speed: float, diffusivity: float, safety: float = 0.4) -> float:
        """Stable explicit time step for advection + diffusion.

        ``dt <= safety * min(h / |u|, h^2 / (2 d D))`` over all axes.
        """
        if max_speed < 0 or diffusivity < 0:
            raise ValueError("max_speed and diffusivity must be non-negative")
        h = min(self.spacing)
        limits = []
        if max_speed > 0:
            limits.append(h / max_speed)
        if diffusivity > 0:
            limits.append(h * h / (6.0 * diffusivity))
        if not limits:
            raise ValueError("need nonzero speed or diffusivity for a CFL step")
        return safety * min(limits)

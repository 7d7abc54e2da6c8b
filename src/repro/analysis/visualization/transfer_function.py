"""Piecewise-linear scalar -> RGBA transfer functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Opacity per unit march distance at the top of both built-in ramps.
_MAX_OPACITY = 0.4


@dataclass(frozen=True)
class TransferFunction:
    """Control points ``(value, r, g, b, a)`` interpolated linearly.

    Values outside the control range clamp to the end points. Opacity is
    per unit march distance; the ray marcher converts it per step.
    """

    points: tuple[tuple[float, float, float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("need at least two control points")
        vals = [p[0] for p in self.points]
        if vals != sorted(vals):
            raise ValueError("control points must be sorted by value")
        for p in self.points:
            if len(p) != 5:
                raise ValueError(f"control point {p} must be (value, r, g, b, a)")
            if not all(0.0 <= c <= 1.0 for c in p[1:]):
                raise ValueError(f"color/opacity of {p} must lie in [0, 1]")
        # Column 0: control values; columns 1-4: their r, g, b, a. The
        # marcher calls the function once per image, the points never change.
        object.__setattr__(self, "_columns",
                           np.array(self.points, dtype=np.float64).T.copy())

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Map scalars (any shape) to RGBA (shape + (4,))."""
        v = np.asarray(values, dtype=np.float64)
        xs = self._columns[0]
        out = np.empty(v.shape + (4,), dtype=np.float64)
        for c in range(4):
            out[..., c] = np.interp(v, xs, self._columns[c + 1])
        return out

    @classmethod
    def hot(cls, vmin: float, vmax: float) -> "TransferFunction":
        """Black-red-yellow-white ramp (the classic combustion palette)."""
        if vmax <= vmin:
            raise ValueError(f"vmax ({vmax}) must exceed vmin ({vmin})")
        span = vmax - vmin
        return cls((
            (vmin, 0.0, 0.0, 0.0, 0.0),
            (vmin + 0.33 * span, 0.8, 0.1, 0.0, 0.15 * _MAX_OPACITY),
            (vmin + 0.66 * span, 1.0, 0.6, 0.0, 0.6 * _MAX_OPACITY),
            (vmax, 1.0, 1.0, 0.9, _MAX_OPACITY),
        ))

    @classmethod
    def grayscale(cls, vmin: float, vmax: float) -> "TransferFunction":
        if vmax <= vmin:
            raise ValueError(f"vmax ({vmax}) must exceed vmin ({vmin})")
        return cls((
            (vmin, 0.0, 0.0, 0.0, 0.0),
            (vmax, 1.0, 1.0, 1.0, _MAX_OPACITY),
        ))

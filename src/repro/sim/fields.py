"""The solution state: S3D's 14 field variables.

The paper's runs carry 14 double-precision variables per grid point
(Table I). We use the canonical lifted-H2-flame set: temperature, pressure,
three velocity components, and nine species mass fractions of the H2/air
system.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.sim.grid import StructuredGrid3D

SPECIES_NAMES: tuple[str, ...] = (
    "H2", "O2", "H2O", "H", "O", "OH", "HO2", "H2O2", "N2",
)

VARIABLE_NAMES: tuple[str, ...] = ("T", "P", "u", "v", "w") + SPECIES_NAMES

assert len(VARIABLE_NAMES) == 14  # matches Table I's "No. of variables"


class FieldSet:
    """Named double-precision fields on one grid.

    Behaves like an ordered mapping from variable name to ``(nx, ny, nz)``
    array; iteration order is :data:`VARIABLE_NAMES` order for variables
    that exist.
    """

    def __init__(self, grid: StructuredGrid3D,
                 names: tuple[str, ...] = VARIABLE_NAMES) -> None:
        self.grid = grid
        self._names = tuple(names)
        self._data: dict[str, np.ndarray] = {
            name: grid.zeros() for name in self._names
        }

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(
                f"no field {name!r}; available: {self._names}"
            ) from None

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.grid.shape:
            raise ValueError(
                f"field {name!r} shape {value.shape} != grid {self.grid.shape}"
            )
        if name not in self._data:
            self._names = (*self._names, name)
        self._data[name] = value

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def items(self):
        return ((name, self._data[name]) for name in self._names)

    @property
    def nbytes(self) -> int:
        """Total solution-state size — Table I's "Data size"."""
        return sum(arr.nbytes for arr in self._data.values())

    def velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self["u"], self["v"], self["w"]

    def copy(self) -> "FieldSet":
        out = FieldSet(self.grid, self._names)
        for name in self._names:
            out._data[name] = self._data[name].copy()
        return out

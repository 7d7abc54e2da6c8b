"""Shared utilities: units, deterministic RNG, image output, text tables.

These helpers are intentionally dependency-free (NumPy only) so that every
other subpackage can rely on them without import cycles.
"""

from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    bytes_to_mb,
    bytes_to_gb,
    fmt_bytes,
    fmt_seconds,
)
from repro.util.rng import seeded_rng
from repro.util.tables import TextTable
from repro.util.image import write_ppm, image_rmse

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "bytes_to_mb",
    "bytes_to_gb",
    "fmt_bytes",
    "fmt_seconds",
    "seeded_rng",
    "TextTable",
    "write_ppm",
    "image_rmse",
]

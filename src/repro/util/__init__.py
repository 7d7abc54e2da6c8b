"""Shared utilities: units, deterministic RNG, image output, text tables.

These helpers are intentionally dependency-free (NumPy only) so that every
other subpackage can rely on them without import cycles.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "KB": "units",
    "MB": "units",
    "GB": "units",
    "TB": "units",
    "bytes_to_mb": "units",
    "fmt_bytes": "units",
    "fmt_seconds": "units",
    "seeded_rng": "rng",
    "TextTable": "tables",
    "write_ppm": "image",
    "image_rmse": "image",
})

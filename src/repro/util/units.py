"""Byte and time unit helpers.

The paper reports sizes in MB/GB (decimal semantics are irrelevant at the
precision quoted; we use binary units, matching typical HPC tooling) and
times in seconds. These helpers keep conversions in one place.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024**2
GB: int = 1024**3
TB: int = 1024**4


def bytes_to_mb(n: float) -> float:
    """Convert a byte count to mebibytes."""
    return n / MB


def fmt_bytes(n: float) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(98.5 * GB) == '98.50 GB'``."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if n >= unit:
            return f"{n / unit:.2f} {name}"
    return f"{n:.0f} B"


def fmt_seconds(t: float) -> str:
    """Human-readable duration: microseconds through hours."""
    if t < 0:
        raise ValueError(f"duration must be non-negative, got {t}")
    if t < 1e-3:
        return f"{t * 1e6:.1f} us"
    if t < 1.0:
        return f"{t * 1e3:.2f} ms"
    if t < 120.0:
        return f"{t:.2f} s"
    if t < 7200.0:
        return f"{t / 60.0:.1f} min"
    return f"{t / 3600.0:.2f} h"

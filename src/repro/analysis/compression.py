"""ISABELA-style in-situ compression with query support (related work [6]).

The paper's related-work survey includes ISABELA-QA: "statistical
compression and queries ... directly integrated into simulation routines,
enabling them to operate on in-memory simulation data." The method:
partition the field into fixed-size windows, *sort* each window (sorted
data is monotone, hence extremely smooth), fit a low-order B-spline to the
sorted curve, and store the spline knots plus the sort permutation. The
spline coefficients compress the values; range queries ("which windows can
contain values in [a, b]?") run on the compressed representation without
reconstruction.

This implementation keeps the full permutation (stored as the index bytes
ISABELA entropy-codes); the *value* payload still shrinks by the window /
knots ratio, and the error-bound and query semantics are faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CompressedWindow:
    """One window: spline knots/coefficients + the sort permutation."""

    tck: tuple
    permutation: np.ndarray     # int32 positions of sorted values
    minimum: float
    maximum: float
    n: int


@dataclass
class CompressedField:
    """A compressed scalar field (window partition of the flat array)."""

    windows: list[CompressedWindow]
    shape: tuple[int, ...]
    window_size: int
    n_coefficients: int

    @property
    def value_bytes(self) -> int:
        """Bytes of the value model (knots + coefficients)."""
        total = 0
        for w in self.windows:
            t, c, _k = w.tck
            total += (len(t) + len(c)) * 8 + 16  # + min/max
        return total

    @property
    def index_bytes(self) -> int:
        """Bytes of the permutation indices (ISABELA entropy-codes these;
        we count them raw — a conservative ratio)."""
        return sum(w.permutation.nbytes for w in self.windows)

    @property
    def nbytes(self) -> int:
        return self.value_bytes + self.index_bytes

    def compression_ratio(self, itemsize: int = 8) -> float:
        n = int(np.prod(self.shape))
        return n * itemsize / self.nbytes

    def value_compression_ratio(self, itemsize: int = 8) -> float:
        """Ratio counting only value payload (the ISABELA headline number,
        with indices assumed entropy-coded separately)."""
        n = int(np.prod(self.shape))
        return n * itemsize / self.value_bytes


def compress(field: np.ndarray, window_size: int = 256,
             n_coefficients: int = 10) -> CompressedField:
    """Compress a scalar field window-by-window.

    ``n_coefficients`` controls the spline richness (ISABELA's knob): more
    coefficients, lower error, less compression.
    """
    if window_size < 8:
        raise ValueError(f"window_size must be >= 8, got {window_size}")
    if not 4 <= n_coefficients <= window_size:
        raise ValueError(
            f"n_coefficients must be in [4, window_size], got {n_coefficients}")
    flat = np.asarray(field, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot compress an empty field")
    from scipy.interpolate import splrep  # kept off the package import path
    windows: list[CompressedWindow] = []
    x_full = None
    for start in range(0, flat.size, window_size):
        chunk = flat[start:start + window_size]
        order = np.argsort(chunk, kind="stable").astype(np.int32)
        sorted_vals = chunk[order]
        n = sorted_vals.size
        if x_full is None or x_full.size != n:
            x_full = np.arange(n, dtype=np.float64)
        # Interior knots evenly spaced; cubic unless the window is tiny.
        k = 3 if n > 8 else 1
        n_interior = max(0, min(n_coefficients - (k + 1), n - 2 * (k + 1)))
        if n_interior > 0:
            knots = np.linspace(0, n - 1, n_interior + 2)[1:-1]
        else:
            knots = None
        tck = splrep(x_full, sorted_vals, k=k, t=knots, s=0 if knots is None and n <= k + 1 else None)
        windows.append(CompressedWindow(
            tck=tck, permutation=order,
            minimum=float(sorted_vals[0]), maximum=float(sorted_vals[-1]),
            n=n))
    return CompressedField(windows=windows, shape=tuple(np.asarray(field).shape),
                           window_size=window_size,
                           n_coefficients=n_coefficients)


def decompress(compressed: CompressedField) -> np.ndarray:
    """Reconstruct the field (values approximate, positions exact)."""
    from scipy.interpolate import splev
    out = np.empty(int(np.prod(compressed.shape)), dtype=np.float64)
    pos = 0
    for w in compressed.windows:
        x = np.arange(w.n, dtype=np.float64)
        sorted_vals = np.asarray(splev(x, w.tck), dtype=np.float64)
        # Clamp to the stored extrema (the spline may overshoot slightly).
        np.clip(sorted_vals, w.minimum, w.maximum, out=sorted_vals)
        chunk = np.empty(w.n)
        chunk[w.permutation] = sorted_vals
        out[pos:pos + w.n] = chunk
        pos += w.n
    return out.reshape(compressed.shape)


def relative_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Max pointwise error relative to the field's value range."""
    original = np.asarray(original, dtype=np.float64)
    span = float(original.max() - original.min())
    if span == 0:
        return 0.0
    return float(np.max(np.abs(original - reconstructed)) / span)


def query_range(compressed: CompressedField, lo: float, hi: float
                ) -> np.ndarray:
    """Boolean mask of *windows* that may contain values in ``[lo, hi]``.

    Runs entirely on compressed metadata (window min/max) — the
    query-driven-analytics pattern of ISABELA-QA: windows ruled out are
    never reconstructed.
    """
    if hi < lo:
        raise ValueError(f"empty query range [{lo}, {hi}]")
    return np.array([not (w.maximum < lo or w.minimum > hi)
                     for w in compressed.windows])


def query_values(compressed: CompressedField, lo: float, hi: float
                 ) -> np.ndarray:
    """Flat indices whose reconstructed value falls in ``[lo, hi]``.

    Decompresses only the candidate windows selected by
    :func:`query_range`.
    """
    from scipy.interpolate import splev
    mask = query_range(compressed, lo, hi)
    hits: list[np.ndarray] = []
    pos = 0
    for selected, w in zip(mask, compressed.windows):
        if selected:
            x = np.arange(w.n, dtype=np.float64)
            sorted_vals = np.clip(np.asarray(splev(x, w.tck)), w.minimum,
                                  w.maximum)
            chunk = np.empty(w.n)
            chunk[w.permutation] = sorted_vals
            local = np.flatnonzero((chunk >= lo) & (chunk <= hi))
            hits.append(local + pos)
        pos += w.n
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(hits)

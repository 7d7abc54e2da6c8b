"""Minimal image output (PPM/PGM) and comparison metrics.

The visualization benchmarks write rendered frames as binary PPM so the
in-situ vs. hybrid images (paper Fig. 2) can be inspected without any
imaging dependency.
"""

from __future__ import annotations

import os

import numpy as np


def _validate_rgb(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {img.shape}")
    return img


def write_ppm(path: str | os.PathLike, img: np.ndarray) -> None:
    """Write an ``(H, W, 3)`` float [0,1] or uint8 image as binary PPM (P6)."""
    img = _validate_rgb(img)
    if img.dtype != np.uint8:
        img = (np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def image_rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square error between two images of identical shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))

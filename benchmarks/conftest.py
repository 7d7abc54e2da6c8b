"""Shared fixtures and field factories for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper (see DESIGN.md's experiment index). Each can also be executed as a
script (``python benchmarks/bench_table1.py``) to print the regenerated
rows; under pytest the same logic runs with assertions on the paper's
shape claims, and ``pytest-benchmark`` times the representative kernels.

``pytest-benchmark`` keeps its own timings (``--benchmark-json FILE``
writes them); a test that measures something itself — a speed-up floor,
an overhead bound — records the figures through the ``bench_json_writer``
fixture as ``benchmarks/results/BENCH_<name>.json`` (gitignored scratch;
CI uploads them).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.sim import LiftedFlameCase, S3DProxy, StructuredGrid3D

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_bench_json(name: str, payload: dict) -> Path:
    """Write one ``BENCH_<name>.json`` record under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def bench_json_writer():
    """Session fixture handing tests the BENCH_<name>.json writer."""
    return write_bench_json


def blob_field(shape=(16, 14, 12), n_blobs=5, seed=0) -> np.ndarray:
    """Smooth multi-feature scalar field (combustion-like structure)."""
    rng = np.random.default_rng(seed)
    coords = np.stack(np.mgrid[[slice(0, s) for s in shape]]).astype(float)
    f = np.zeros(shape)
    for _ in range(n_blobs):
        c = [rng.uniform(1, s - 1) for s in shape]
        d2 = sum((coords[a] - c[a]) ** 2 for a in range(3))
        f += rng.uniform(0.5, 1.5) * np.exp(-d2 / rng.uniform(4, 10))
    return f


@pytest.fixture(scope="session")
def flame_solver() -> S3DProxy:
    """A small lifted-flame run shared by the figure benchmarks."""
    grid = StructuredGrid3D((24, 16, 12), lengths=(3.0, 2.0, 1.5))
    case = LiftedFlameCase(grid, seed=5, kernel_rate=1.5)
    solver = S3DProxy(case)
    solver.step(5)
    return solver

"""Shared fixture for the benchmark files outside ``e2e/``.

The paper's tables and figures live in one registry, ``paper.py``
(``python benchmarks/paper.py`` prints it; ``tests/test_paper_fidelity.py``
asserts it in tier-1). What remains here for pytest is
``bench_backend.py``'s speed-up floors, which record their measured
figures through the ``bench_json_writer`` fixture as
``benchmarks/results/BENCH_<name>.json`` (gitignored scratch; CI uploads
them).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

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

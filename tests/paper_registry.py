"""Loads ``benchmarks/paper.py``, the paper-fidelity registry, for tests.

The registry is where each paper number is written down; a test that
checks a model path against the paper reads the number from here.
"""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "paper.py"
_SPEC = importlib.util.spec_from_file_location("paper", _PATH)
paper = importlib.util.module_from_spec(_SPEC)
sys.modules["paper"] = paper
_SPEC.loader.exec_module(paper)


def paper_value(entry_id: str) -> float:
    """The paper's number for registry row ``entry_id``."""
    return paper.REGISTRY[entry_id].paper

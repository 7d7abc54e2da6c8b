"""The paper-fidelity gate: one test per ``benchmarks/paper.py`` entry.

Each EXPERIMENTS.md row or shape claim is asserted here, and each paper
number is written down only in the registry. Two more tests hold the
registry to its own rules: every fitted constant is named by exactly one
fitted row (or listed as assumed), and every model row moves when some
constant is scaled by 10 % — an output no constant moves is an echo, not
a reproduction.
"""

import pytest

from repro.costmodel.jaguar import JAGUAR_RATES
from tests.paper_registry import paper


@pytest.mark.parametrize("entry", paper.REGISTRY.values(),
                         ids=lambda e: e.id)
def test_entry(entry):
    value, holds = paper.evaluate(entry)
    assert holds, f"{entry.id}: {entry.claim} -> {value!r}"


def test_fitted_constants_named_once_or_assumed():
    fitted = paper.fitted_constants()  # raises on a constant named twice
    assert not set(fitted) & set(paper.ASSUMED)
    assert set(JAGUAR_RATES) <= set(fitted) | set(paper.ASSUMED)
    assert set(paper.LUSTRE) <= set(fitted)


def test_every_model_row_moves_under_some_constant():
    table = paper.sensitivity()
    assert paper.unmoved_model_rows(table) == []
    # a fitted row moves with the constant it names
    for constant, rid in paper.fitted_constants().items():
        if constant in table:
            assert rid in table[constant], (constant, rid)

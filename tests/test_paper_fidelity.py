"""The fidelity gate: one test per ``repro.checks`` registry entry.

Each EXPERIMENTS.md row or shape claim, and each seeded scenario, is
asserted here, and each paper number is written down only in the
registry. Two more tests hold the paper rows to their own rules: every
fitted constant is named by exactly one fitted row (or listed as
assumed), and every model row moves when some constant is scaled by
10 % — an output no constant moves is an echo, not a reproduction.
"""

import pytest

from repro.checks import REGISTRY, paper, select
from repro.costmodel.jaguar import JAGUAR_RATES


@pytest.mark.parametrize("entry", REGISTRY.values(), ids=lambda e: e.id)
def test_entry(entry):
    v = entry.produce()
    assert v.passed, f"{entry.id}: {entry.claim} -> {v.measured!r}"


def test_the_registry_holds_every_paper_row_then_every_scenario():
    rows, scenarios = select(["paper"]), select(["scenarios"])
    assert len(rows) == 95 and {e.group for e in rows} == {"paper"}
    assert [e.id for e in scenarios] == [
        "faults", "control", "capacity", "capacity-leak"]
    assert select([]) == list(REGISTRY.values()) == rows + scenarios
    assert select(["table1", "Table I"]) == [
        e for e in rows if e.section == "Table I"]


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

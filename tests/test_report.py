"""Tests for the run-report renderer."""

import pytest

from repro.core import HybridFramework
from repro.core.report import run_report
from repro.core.steering import refine_cadence_on_topology
from repro.sim import LiftedFlameCase, StructuredGrid3D
from repro.vmpi import BlockDecomposition3D


@pytest.fixture(scope="module")
def run():
    grid = StructuredGrid3D((12, 10, 8))
    case = LiftedFlameCase(grid, seed=61, kernel_rate=1.5)
    decomp = BlockDecomposition3D((12, 10, 8), (2, 1, 1))
    fw = HybridFramework(
        case, decomp,
        analyses=("statistics", "topology"),
        stats_variables=("T",), n_buckets=2,
        steering=(refine_cadence_on_topology(1, 1),))
    result = fw.run(4, analysis_interval=2)
    return fw, result


class TestRunReport:
    def test_contains_core_sections(self, run):
        fw, result = run
        text = run_report(fw, result)
        assert "hybrid run" in text
        assert "in-transit activity" in text
        assert "bucket occupancy" in text
        assert "statistics @ step" in text
        assert "topology @ step" in text
        assert "total intermediate data" in text

    def test_reports_analyses_present(self, run):
        fw, result = run
        text = run_report(fw, result)
        assert "statistics" in text and "topology" in text

    def test_reports_steering(self, run):
        fw, result = run
        text = run_report(fw, result)
        assert "steering" in text
        assert "refine-cadence" in text

    def test_utilisation_percentages_present(self, run):
        fw, result = run
        text = run_report(fw, result)
        assert "utilisation:" in text
        assert "%" in text

    def test_minimal_run(self):
        """A run with a single analysis still renders without errors."""
        grid = StructuredGrid3D((8, 8, 6))
        case = LiftedFlameCase(grid, seed=62)
        decomp = BlockDecomposition3D((8, 8, 6), (1, 1, 1))
        fw = HybridFramework(case, decomp, analyses=("statistics",),
                             stats_variables=("T",), n_buckets=1)
        result = fw.run(1)
        text = run_report(fw, result)
        assert "1 analysed" in text
        assert "steering" not in text

"""Tests for the cost-model layer. Each Jaguar rate's fit to its Table
I/II measurement is a fitted row of benchmarks/paper.py, which also
holds the paper numbers the calibration tests read."""

import pytest

from repro.costmodel import CostModel, jaguar_cost_model
from tests.paper_registry import paper_value

BLOCK_CELLS = 100 * 49 * 43  # per-rank block in the 4896-core run
BLOCK_CELLS_9440 = 50 * 49 * 43


class TestCostModel:
    def test_linear_time(self):
        m = CostModel("m", {"op": 2.0}, {"op": 1.0})
        assert m.time("op", 10) == 21.0

    def test_unknown_op_raises_with_known_list(self):
        m = CostModel("m", {"a": 1.0})
        with pytest.raises(KeyError, match="known"):
            m.time("b", 1)

    def test_negative_elements_raises(self):
        m = CostModel("m", {"a": 1.0})
        with pytest.raises(ValueError):
            m.time("a", -1)

    def test_with_rate_copies(self):
        m = CostModel("m", {"a": 1.0})
        m2 = m.with_rate("a", 5.0)
        assert m.rate("a") == 1.0
        assert m2.rate("a") == 5.0


class TestJaguarCalibration:
    """Charged straight from the cost model, a rate reproduces the Table
    I/II measurement it was fit from."""

    def setup_method(self):
        self.m = jaguar_cost_model()

    def test_s3d_step_4896(self):
        assert self.m.time("s3d.step", BLOCK_CELLS) == pytest.approx(
            paper_value("table1.sim_s.4896"), rel=1e-6)

    def test_s3d_step_9440_cross_check(self):
        """The strong-scaling cross-check: 8.42 s at half the block size."""
        assert self.m.time("s3d.step", BLOCK_CELLS_9440) == pytest.approx(
            paper_value("table1.sim_s.9440"), rel=0.01)

    def test_insitu_visualization(self):
        assert self.m.time("vis.render_insitu", BLOCK_CELLS) == pytest.approx(
            paper_value("table2.vis_insitu.insitu_s"), rel=1e-6)

    def test_insitu_statistics(self):
        assert self.m.time("stats.learn", 14 * BLOCK_CELLS) == pytest.approx(
            paper_value("table2.stats_insitu.insitu_s"), rel=1e-6)

    def test_paper_ratio_insitu_stats_fraction(self):
        """§V: in-situ statistics is ~9.73% of simulation time."""
        frac = (self.m.time("stats.learn", 14 * BLOCK_CELLS)
                / self.m.time("s3d.step", BLOCK_CELLS))
        assert frac == pytest.approx(paper_value("ratios.stats_insitu_frac"),
                                     abs=0.001)


"""Tests for the cost-model layer and its Jaguar calibration."""

import pytest

from repro.costmodel import CostModel, jaguar_cost_model

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
    """Each rate must reproduce the Table I/II measurement it was fit from."""

    def setup_method(self):
        self.m = jaguar_cost_model()

    def test_s3d_step_4896(self):
        assert self.m.time("s3d.step", BLOCK_CELLS) == pytest.approx(16.85, rel=1e-6)

    def test_s3d_step_9440_cross_check(self):
        """The strong-scaling cross-check: 8.42 s at half the block size."""
        assert self.m.time("s3d.step", BLOCK_CELLS_9440) == pytest.approx(8.42, rel=0.01)

    def test_insitu_visualization(self):
        assert self.m.time("vis.render_insitu", BLOCK_CELLS) == pytest.approx(0.73, rel=1e-6)

    def test_insitu_statistics(self):
        assert self.m.time("stats.learn", 14 * BLOCK_CELLS) == pytest.approx(1.64, rel=1e-6)

    def test_hybrid_stats_learn_includes_packing(self):
        t = self.m.time("stats.learn", 14 * BLOCK_CELLS) + self.m.time("stats.pack_partial", 14)
        assert t == pytest.approx(1.69, rel=1e-3)

    def test_downsample(self):
        assert self.m.time("vis.downsample", 2 * BLOCK_CELLS) == pytest.approx(0.08, rel=1e-6)

    def test_intransit_render(self):
        n_cells = int(49.19e6 / 8)
        assert self.m.time("vis.render_intransit", n_cells) == pytest.approx(5.06 + 0.05, rel=0.01)

    def test_topology_subtree(self):
        assert self.m.time("topo.subtree", BLOCK_CELLS) == pytest.approx(2.72, rel=1e-6)

    def test_topology_glue(self):
        n_elem = int(87.02e6 / 24)
        assert self.m.time("topo.stream_glue", n_elem) == pytest.approx(119.81, rel=0.01)

    def test_paper_ratio_insitu_vis_fraction(self):
        """§V: in-situ visualization is ~4.33% of simulation time."""
        frac = self.m.time("vis.render_insitu", BLOCK_CELLS) / self.m.time("s3d.step", BLOCK_CELLS)
        assert frac == pytest.approx(0.0433, abs=0.001)

    def test_paper_ratio_insitu_stats_fraction(self):
        """§V: in-situ statistics is ~9.73% of simulation time."""
        frac = self.m.time("stats.learn", 14 * BLOCK_CELLS) / self.m.time("s3d.step", BLOCK_CELLS)
        assert frac == pytest.approx(0.0973, abs=0.001)

"""Tests for the full-scale experiment replay: configs, breakdowns, schedule."""

import pytest

from repro.core import (
    AnalyticsVariant,
    ExperimentConfig,
    ScaledExperiment,
    ScaledWorkload,
)
from repro.core.workload import HYBRID_VARIANTS
from repro.util.units import GB, MB


class TestExperimentConfig:
    def test_paper_4896_allocation(self):
        """Table I column 1: 16x28x10 sim + 160 service + 256 in-transit."""
        cfg = ExperimentConfig.paper_4896()
        assert cfg.n_sim_cores == 4480
        assert cfg.n_cores == 4896

    def test_paper_9440_allocation(self):
        cfg = ExperimentConfig.paper_9440()
        assert cfg.n_sim_cores == 8960
        assert cfg.n_cores == 9440

    def test_block_shapes_match_table1(self):
        assert ExperimentConfig.paper_4896().workload().block_shape == (100, 49, 43)
        assert ExperimentConfig.paper_9440().workload().block_shape == (50, 49, 43)


class TestScaledWorkload:
    def setup_method(self):
        self.w = ExperimentConfig.paper_4896().workload()

    def test_checkpoint_size_matches_table1(self):
        assert self.w.checkpoint_bytes / GB == pytest.approx(98.5, rel=0.01)

    def test_downsample_cells(self):
        # ceil(100/8) x ceil(49/8) x ceil(43/8) = 13 x 7 x 6
        assert self.w.downsampled_block_cells == 13 * 7 * 6

    def test_hybrid_viz_movement_order_of_magnitude(self):
        """Paper: 49.19 MB; our per-block strided model gives ~39 MB — same
        order, ~2000x below the 98.5 GB raw data."""
        moved = self.w.movement_bytes_total(AnalyticsVariant.VIS_HYBRID)
        assert 20 * MB < moved < 80 * MB
        assert moved < self.w.checkpoint_bytes / 1000

    def test_topology_movement_near_paper(self):
        """Paper: 87.02 MB of subtree data."""
        moved = self.w.movement_bytes_total(AnalyticsVariant.TOPO_HYBRID)
        assert moved / MB == pytest.approx(87.02, rel=0.05)

    def test_stats_movement_near_paper(self):
        """Paper: 13.30 MB of partial models."""
        moved = self.w.movement_bytes_total(AnalyticsVariant.STATS_HYBRID)
        assert moved / MB == pytest.approx(13.30, rel=0.05)

    def test_insitu_variants_move_nothing(self):
        assert self.w.movement_bytes_total(AnalyticsVariant.VIS_INSITU) == 0
        assert self.w.movement_bytes_total(AnalyticsVariant.STATS_INSITU) == 0
        assert self.w.intransit_op(AnalyticsVariant.VIS_INSITU) is None

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ScaledWorkload((10, 10, 10), (20, 1, 1))
        with pytest.raises(ValueError):
            ScaledWorkload((10, 10, 10), (2, 1, 1), downsample_stride=0)
        with pytest.raises(ValueError):
            ScaledWorkload((10, 10, 10), (2, 1, 1), n_render_vars=0)


class TestBreakdownTable1:
    def test_4896_column(self):
        b = ScaledExperiment(ExperimentConfig.paper_4896()).breakdown()
        assert b.simulation_time == pytest.approx(16.85, rel=0.01)
        assert b.io_read_time == pytest.approx(6.56, rel=0.02)
        assert b.io_write_time == pytest.approx(3.28, rel=0.02)
        assert b.data_gb == pytest.approx(98.5, rel=0.01)

    def test_9440_column(self):
        b = ScaledExperiment(ExperimentConfig.paper_9440()).breakdown()
        assert b.simulation_time == pytest.approx(8.42, rel=0.01)
        # I/O is core-count independent (same data, same OST ceiling)
        assert b.io_read_time == pytest.approx(6.56, rel=0.02)
        assert b.io_write_time == pytest.approx(3.28, rel=0.02)

    def test_strong_scaling_shape(self):
        """Doubling sim cores halves the simulation step; I/O is flat."""
        b1 = ScaledExperiment(ExperimentConfig.paper_4896()).breakdown()
        b2 = ScaledExperiment(ExperimentConfig.paper_9440()).breakdown()
        assert b1.simulation_time / b2.simulation_time == pytest.approx(2.0, rel=0.01)
        assert b1.io_read_time == pytest.approx(b2.io_read_time, rel=1e-6)


class TestClosedFormMemo:
    def test_rows_computed_once_frozen_and_equal_to_fresh(self):
        import dataclasses

        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        for v in AnalyticsVariant:
            row = exp.analytics_timing(v)
            assert exp.analytics_timing(v) is row
            assert exp.movement_time(v) == row.movement_time
            assert row == ScaledExperiment(
                ExperimentConfig.paper_4896()).analytics_timing(v)
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.movement_time = 0.0
        # Warm and cold experiments agree on everything derived from them.
        cold = ScaledExperiment(ExperimentConfig.paper_4896())
        assert (exp.staging_memory_needed(1, 8)
                == cold.staging_memory_needed(1, 8))
        assert exp.expected_stage_totals(6) == cold.expected_stage_totals(6)
        assert (repr(exp.run_schedule(n_steps=3, n_buckets=4).makespan)
                == repr(cold.run_schedule(n_steps=3, n_buckets=4).makespan))


class TestBreakdownTable2:
    def setup_method(self):
        self.b = ScaledExperiment(ExperimentConfig.paper_4896()).breakdown()

    def _row(self, variant):
        return self.b.analytics[variant.value]

    def test_insitu_visualization_row(self):
        assert self._row(AnalyticsVariant.VIS_INSITU).insitu_time == \
            pytest.approx(0.73, rel=0.01)

    def test_insitu_statistics_row(self):
        assert self._row(AnalyticsVariant.STATS_INSITU).insitu_time == \
            pytest.approx(1.64, rel=0.01)

    def test_hybrid_viz_row(self):
        row = self._row(AnalyticsVariant.VIS_HYBRID)
        assert row.insitu_time == pytest.approx(0.08, rel=0.01)      # down-sample
        assert row.intransit_time == pytest.approx(5.06, rel=0.25)   # render
        assert 0.02 < row.movement_time < 0.3                        # ~0.092 s

    def test_hybrid_topology_row(self):
        row = self._row(AnalyticsVariant.TOPO_HYBRID)
        assert row.insitu_time == pytest.approx(2.72, rel=0.01)
        assert row.movement_mb == pytest.approx(87.02, rel=0.05)
        assert row.movement_time == pytest.approx(2.06, rel=0.15)
        assert row.intransit_time == pytest.approx(119.81, rel=0.05)

    def test_hybrid_stats_row(self):
        row = self._row(AnalyticsVariant.STATS_HYBRID)
        assert row.insitu_time == pytest.approx(1.69, rel=0.01)
        assert row.movement_mb == pytest.approx(13.30, rel=0.05)
        assert row.intransit_time == pytest.approx(0.01, rel=0.05)
        assert row.movement_time < 0.2                               # ~0.06 s

    def test_paper_fractions(self):
        """§V: in-situ viz ~4.33% and in-situ stats ~9.73% of sim time."""
        assert self.b.impact_fraction(AnalyticsVariant.VIS_INSITU.value) == \
            pytest.approx(0.0433, abs=0.002)
        assert self.b.impact_fraction(AnalyticsVariant.STATS_INSITU.value) == \
            pytest.approx(0.0973, abs=0.002)

    def test_hybrid_viz_impact_about_one_percent(self):
        """§V: down-sampling + movement ~1% of simulation time."""
        row = self._row(AnalyticsVariant.VIS_HYBRID)
        frac = (row.insitu_time + row.movement_time) / self.b.simulation_time
        assert 0.005 < frac < 0.02

    def test_hybrid_offloads_critical_path(self):
        """The whole point: hybrid variants burden the simulation less than
        their fully in-situ counterparts, despite larger total work."""
        viz_in = self._row(AnalyticsVariant.VIS_INSITU)
        viz_hy = self._row(AnalyticsVariant.VIS_HYBRID)
        assert viz_hy.simulation_impact < viz_in.simulation_impact / 5
        stats_in = self._row(AnalyticsVariant.STATS_INSITU)
        stats_hy = self._row(AnalyticsVariant.STATS_HYBRID)
        # stats learn must run in situ either way; impact is comparable,
        # but the hybrid variant avoids the all-to-all on the sim cores.
        assert stats_hy.simulation_impact < stats_in.simulation_impact * 1.1

    def test_fig6_series_structure(self):
        series = self.b.fig6_series()
        assert "simulation" in series
        assert len(series) == 6  # simulation + 5 analytics
        for bars in series.values():
            assert set(bars) == {"in-situ", "data movement", "in-transit"}

    def test_table_rows_render(self):
        for a in self.b.analytics.values():
            row = a.table_row()
            assert len(row) == 5


class TestScheduleReplay:
    def setup_method(self):
        self.exp = ScaledExperiment(ExperimentConfig.paper_4896())

    def test_tasks_all_complete(self):
        sched = self.exp.run_schedule(n_steps=5, n_buckets=16)
        assert len(sched.results) == 5 * len(HYBRID_VARIANTS)

    def test_topology_needs_multiplexing(self):
        """Topology's 119.8 s in-transit stage >> the 16.85 s step: with one
        bucket the queue grows; with ~8+ buckets staging keeps pace (§V's
        temporally multiplexed decoupling)."""
        slow = self.exp.run_schedule(n_steps=6, n_buckets=1,
                                     analyses=(AnalyticsVariant.TOPO_HYBRID,))
        fast = self.exp.run_schedule(n_steps=6, n_buckets=8,
                                     analyses=(AnalyticsVariant.TOPO_HYBRID,))
        assert not slow.keeps_pace()
        assert fast.keeps_pace()
        assert fast.max_queue_wait() < slow.max_queue_wait()

    def test_cheap_analyses_keep_pace_with_one_bucket(self):
        sched = self.exp.run_schedule(n_steps=5, n_buckets=1,
                                      analyses=(AnalyticsVariant.STATS_HYBRID,))
        assert sched.keeps_pace()

    def test_distinct_steps_use_distinct_buckets(self):
        sched = self.exp.run_schedule(n_steps=4, n_buckets=8,
                                      analyses=(AnalyticsVariant.TOPO_HYBRID,))
        assert len({r.bucket for r in sched.results}) >= 3

    def test_analysis_interval_reduces_load(self):
        every = self.exp.run_schedule(n_steps=6, n_buckets=4)
        sparse = self.exp.run_schedule(n_steps=6, n_buckets=4,
                                       analysis_interval=3)
        assert len(sparse.results) < len(every.results)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.exp.run_schedule(n_steps=0)
        with pytest.raises(ValueError):
            self.exp.run_schedule(n_steps=1, n_buckets=0)
        with pytest.raises(ValueError):
            self.exp.run_schedule(n_steps=1, analysis_interval=0)

    def test_allocation_validated_against_machine(self):
        from repro.machine.specs import MachineSpec, NodeSpec
        tiny = MachineSpec("tiny", 2, NodeSpec(cores=4, memory_bytes=2**30,
                                               core_gflops=1.0))
        with pytest.raises(ValueError):
            ScaledExperiment(ExperimentConfig.paper_4896(), machine=tiny)

"""Tests for the full-scale experiment replay: configs, breakdowns, schedule.

Paper numbers are read from the benchmarks/paper.py registry."""

import pytest

from repro.core import (
    AnalyticsVariant,
    ExperimentConfig,
    ReplayPlan,
    ScaledExperiment,
    ScaledWorkload,
)
from repro.core.campaign import Campaign
from repro.core.workload import HYBRID_VARIANTS
from repro.util.units import MB
from tests.paper_registry import paper_value


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

    def test_downsample_cells(self):
        # ceil(100/8) x ceil(49/8) x ceil(43/8) = 13 x 7 x 6
        assert self.w.downsampled_block_cells == 13 * 7 * 6

    def test_hybrid_viz_movement_order_of_magnitude(self):
        """~2000x below the raw data (Table II's size is a registry row of
        benchmarks/paper.py)."""
        moved = self.w.movement_bytes_total(AnalyticsVariant.VIS_HYBRID)
        assert moved < self.w.checkpoint_bytes / 1000

    def test_stats_movement_near_paper(self):
        """Paper: 13.30 MB of partial models."""
        moved = self.w.movement_bytes_total(AnalyticsVariant.STATS_HYBRID)
        assert moved / MB == pytest.approx(
            paper_value("table2.stats_hybrid.move_mb"), rel=0.05)

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
    def _assert_column(self, config, cores):
        b = ScaledExperiment(config).breakdown()
        assert b.simulation_time == pytest.approx(
            paper_value(f"table1.sim_s.{cores}"), rel=0.01)
        # I/O is core-count independent (same data, same OST ceiling)
        assert b.io_read_time == pytest.approx(
            paper_value(f"table1.read_s.{cores}"), rel=0.02)
        assert b.io_write_time == pytest.approx(
            paper_value(f"table1.write_s.{cores}"), rel=0.02)
        return b

    def test_4896_column(self):
        b = self._assert_column(ExperimentConfig.paper_4896(), 4896)
        assert b.data_gb == pytest.approx(paper_value("table1.data_gb.4896"),
                                          rel=0.01)

    def test_9440_column(self):
        self._assert_column(ExperimentConfig.paper_9440(), 9440)

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
            assert row == ScaledExperiment(
                ExperimentConfig.paper_4896()).analytics_timing(v)
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.movement_time = 0.0
        # Warm and cold experiments agree on everything derived from them.
        cold = ScaledExperiment(ExperimentConfig.paper_4896())
        assert (exp.staging_memory_needed(1, 8)
                == cold.staging_memory_needed(1, 8))
        plan = ReplayPlan(n_steps=6)
        assert (exp.expected_stage_totals(plan)
                == cold.expected_stage_totals(plan))
        assert (repr(exp.run_schedule(n_steps=3, n_buckets=4).makespan)
                == repr(cold.run_schedule(n_steps=3, n_buckets=4).makespan))


class TestBreakdownTable2:
    def setup_method(self):
        self.b = ScaledExperiment(ExperimentConfig.paper_4896()).breakdown()

    def _row(self, variant):
        return self.b.analytics[variant.value]

    def test_insitu_visualization_row(self):
        assert self._row(AnalyticsVariant.VIS_INSITU).insitu_time == \
            pytest.approx(paper_value("table2.vis_insitu.insitu_s"), rel=0.01)

    def test_insitu_statistics_row(self):
        assert self._row(AnalyticsVariant.STATS_INSITU).insitu_time == \
            pytest.approx(paper_value("table2.stats_insitu.insitu_s"),
                          rel=0.01)

    def test_hybrid_stats_row(self):
        row = self._row(AnalyticsVariant.STATS_HYBRID)
        assert row.insitu_time == pytest.approx(
            paper_value("table2.stats_hybrid.insitu_s"), rel=0.01)
        assert row.movement_mb == pytest.approx(
            paper_value("table2.stats_hybrid.move_mb"), rel=0.05)
        assert row.intransit_time == pytest.approx(
            paper_value("table2.stats_hybrid.intransit_s"), rel=0.05)
        assert row.movement_time < 0.2                               # ~0.06 s

    def test_paper_fractions(self):
        """§V: in-situ viz ~4.33% and in-situ stats ~9.73% of sim time."""
        assert self.b.impact_fraction(AnalyticsVariant.VIS_INSITU.value) == \
            pytest.approx(paper_value("ratios.vis_insitu_frac"), abs=0.002)
        assert self.b.impact_fraction(AnalyticsVariant.STATS_INSITU.value) == \
            pytest.approx(paper_value("ratios.stats_insitu_frac"), abs=0.002)

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
        with pytest.raises(ValueError):
            self.exp.min_sustainable_interval(0)
        with pytest.raises(ValueError):
            self.exp.staging_memory_needed(0, 1)
        with pytest.raises(ValueError):
            Campaign(x_factors=(7,))  # does not divide the 1600-cell extent

    def test_allocation_validated_against_machine(self):
        from repro.machine.specs import MachineSpec, NodeSpec
        tiny = MachineSpec("tiny", 2, NodeSpec(cores=4, memory_bytes=2**30,
                                               core_gflops=1.0))
        with pytest.raises(ValueError):
            ScaledExperiment(ExperimentConfig.paper_4896(), machine=tiny)


class TestReplayTaskPath:
    """Guards for the per-task replay path: the event count it dispatches
    and the field order its records are filled in."""

    @pytest.mark.parametrize("config, fields, events", [
        (ExperimentConfig.paper_4896, {"n_steps": 40}, 2267),
        (ExperimentConfig.paper_9440, {"n_steps": 16, "n_buckets": 8}, 531),
    ], ids=["paper_4896", "paper_9440"])
    def test_event_count_pinned(self, monkeypatch, config, fields, events):
        """An untraced replay schedules exactly the events a traced one
        dispatches, and as many as before the per-task path was slimmed:
        a change to that path may not add, drop or merge an event."""
        from repro.des import Engine
        from repro.obs.tracer import tracing

        scheduled = []
        run = Engine.run

        def counting_run(engine, until=None):
            now = run(engine, until)
            scheduled.append(engine._seq)
            return now

        monkeypatch.setattr(Engine, "run", counting_run)
        ScaledExperiment(config()).run_schedule(**fields)
        with tracing() as tracer:
            ScaledExperiment(config()).run_schedule(**fields)
        dispatched = tracer.metrics.counter("des.dispatch").value
        assert scheduled == [events, events]
        assert dispatched == events

    @pytest.mark.parametrize("record, names", [
        ("repro.transport.rdma.RdmaRegion",
         ("region_id", "source_node", "payload", "nbytes", "released",
          "pull_count", "meta")),
        ("repro.transport.messages.DataDescriptor",
         ("region_id", "source_node", "nbytes", "meta")),
        ("repro.transport.messages.TransferRecord",
         ("region_id", "source_node", "dest_node", "nbytes", "protocol",
          "start_time", "end_time")),
        ("repro.staging.descriptors.TaskDescriptor",
         ("task_id", "analysis", "timestep", "data", "compute", "cost_op",
          "cost_elements", "stream_compute", "stream_finalize",
          "stream_cost_per_payload", "max_retries", "meta", "attempts",
          "flow")),
        ("repro.staging.scheduler.AssignmentRecord",
         ("task_id", "bucket", "data_ready_time", "bucket_ready_time",
          "assign_time")),
        ("repro.staging.descriptors.TaskResult",
         ("task_id", "analysis", "timestep", "bucket", "value",
          "enqueue_time", "assign_time", "pull_done_time", "finish_time",
          "bytes_pulled")),
    ], ids=lambda v: v.rsplit(".", 1)[-1] if isinstance(v, str) else None)
    def test_positional_field_order_pinned(self, record, names):
        """The hot sites fill these records positionally: a reordered
        field would silently swap two values of the same type."""
        import dataclasses
        import importlib

        module, _, name = record.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        # Slotted instances have no __dict__; TaskResult keeps its own
        # because result digests walk vars().
        assert ("__dict__" in vars(cls)) == (name == "TaskResult")

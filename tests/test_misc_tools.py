"""Tests for the Gantt renderer and the compressed trade-off."""

import pytest

from repro.core import ExperimentConfig, ScaledExperiment, TradeoffModel
from repro.util.gantt import Span, render_gantt, utilisation


class TestGantt:
    def test_span_validation(self):
        with pytest.raises(ValueError):
            Span("a", 2.0, 1.0)

    def test_render_contains_all_actors(self):
        spans = [Span("bucket-0", 0, 5, "t0"), Span("bucket-1", 2, 9, "t1")]
        out = render_gantt(spans, width=40)
        assert "bucket-0" in out and "bucket-1" in out
        assert "#" in out

    def test_render_empty(self):
        assert render_gantt([]) == "(no spans)"

    def test_render_width_validation(self):
        with pytest.raises(ValueError):
            render_gantt([Span("a", 0, 1)], width=5)

    def test_busy_extent_scales(self):
        spans = [Span("a", 0, 10), Span("b", 0, 5)]
        out = render_gantt(spans, width=40)
        row_a = [l for l in out.splitlines() if l.startswith("a")][0]
        row_b = [l for l in out.splitlines() if l.startswith("b")][0]
        assert row_a.count("#") > row_b.count("#")

    def test_utilisation_merges_overlaps(self):
        spans = [Span("a", 0, 6), Span("a", 4, 10)]  # overlapping
        u = utilisation(spans, 0, 10)
        assert u["a"] == pytest.approx(1.0)

    def test_utilisation_partial(self):
        u = utilisation([Span("a", 0, 5)], 0, 10)
        assert u["a"] == pytest.approx(0.5)

    def test_utilisation_window_validation(self):
        with pytest.raises(ValueError):
            utilisation([], 5, 5)

    def test_schedule_replay_gantt_integration(self):
        """Bucket occupancy of a real schedule renders sensibly."""
        from repro.core import AnalyticsVariant
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        sched = exp.run_schedule(n_steps=4, n_buckets=4,
                                 analyses=(AnalyticsVariant.TOPO_HYBRID,))
        spans = [Span(r.bucket, r.assign_time, r.finish_time, r.task_id)
                 for r in sched.results]
        out = render_gantt(spans, width=60)
        assert out.count("|") >= 2 * 4  # one row per bucket
        u = utilisation(spans, 0.0, sched.makespan)
        assert all(0.0 < v <= 1.0 for v in u.values())


class TestCompressedPostprocessing:
    @pytest.fixture(scope="class")
    def model(self):
        return TradeoffModel(ScaledExperiment(ExperimentConfig.paper_4896()))

    def test_cuts_storage_and_write_time(self, model):
        plain = model.postprocessing(10, 1000)
        comp = model.postprocessing_compressed(10, 1000, compression_ratio=10)
        assert comp.storage_bytes == pytest.approx(plain.storage_bytes / 10)
        # amortised write shrinks even after paying the compression pass
        assert comp.critical_path_per_step < plain.critical_path_per_step

    def test_insight_still_run_bound(self, model):
        """Compression trims read-back, but insight still waits for the
        run — the qualitative gap to concurrent analysis is untouched."""
        comp = model.postprocessing_compressed(400, 2000)
        hybrid = model.concurrent_hybrid(1)
        assert comp.time_to_insight > 100 * hybrid.time_to_insight

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.postprocessing_compressed(10, 100, compression_ratio=1.0)
        with pytest.raises(ValueError):
            model.postprocessing_compressed(10, 100,
                                            compress_rate_per_cell=0.0)

"""Tests for the Gantt renderer."""

import pytest

from repro.core import ExperimentConfig, ScaledExperiment
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

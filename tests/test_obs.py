"""Tests for repro.obs: tracer, metrics, exporters, critical path."""

import json
import math

import pytest

from repro.core import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    critical_path,
    get_tracer,
    lane_summary,
    reconcile_totals,
    to_chrome_trace,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.util.gantt import Span


class TestTracerSpans:
    def test_begin_end_records_both_clocks(self):
        times = [5.0]
        tracer = Tracer(clock=lambda: times[0])
        span = tracer.begin("work", lane="rank0", category="sim", step=3)
        times[0] = 7.5
        tracer.end(span, outcome="ok")
        assert span.closed
        assert span.t_start == 5.0 and span.t_end == 7.5
        assert span.duration == pytest.approx(2.5)
        assert span.wall_duration >= 0.0
        assert span.tags == {"step": 3, "outcome": "ok"}
        assert span.category == "sim"

    def test_nesting_same_lane_sets_parent(self):
        tracer = Tracer()
        outer = tracer.begin("outer", lane="l")
        inner = tracer.begin("inner", lane="l")
        other = tracer.begin("elsewhere", lane="other")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert other.parent_id is None
        tracer.end(inner)
        third = tracer.begin("third", lane="l")
        assert third.parent_id == outer.span_id
        tracer.end(third)
        tracer.end(outer)
        tracer.end(other)
        assert len(tracer.trace.closed_spans()) == 4

    def test_span_context_manager_nests_and_closes_on_error(self):
        tracer = Tracer()
        with tracer.span("outer", lane="l") as outer:
            with tracer.span("inner", lane="l") as inner:
                assert inner.parent_id == outer.span_id
            with pytest.raises(RuntimeError):
                with tracer.span("boom", lane="l"):
                    raise RuntimeError("task failed")
        boom = next(s for s in tracer.trace.spans if s.name == "boom")
        assert boom.closed  # the finally closed it despite the raise

    def test_double_end_raises(self):
        tracer = Tracer()
        span = tracer.begin("x")
        tracer.end(span)
        with pytest.raises(RuntimeError):
            tracer.end(span)

    def test_add_span_explicit_times(self):
        tracer = Tracer()
        rec = tracer.add_span("modelled", lane="sim", t_start=2.0, t_end=9.0,
                              stage="simulation")
        assert rec.closed and rec.duration == pytest.approx(7.0)
        with pytest.raises(ValueError):
            tracer.add_span("bad", lane="sim", t_start=5.0, t_end=1.0)

    def test_attach_engine_switches_trace_clock(self):
        class FakeEngine:
            now = 0.0

        tracer = Tracer()
        engine = FakeEngine()
        tracer.attach_engine(engine)
        span = tracer.begin("des-work")
        engine.now = 42.0
        tracer.end(span)
        assert span.t_start == 0.0 and span.t_end == 42.0

    def test_instants_and_stage_totals(self):
        tracer = Tracer()
        tracer.add_span("a", lane="l", t_start=0.0, t_end=3.0, stage="sim")
        tracer.add_span("b", lane="l", t_start=3.0, t_end=4.0, stage="move")
        tracer.add_span("c", lane="l", t_start=4.0, t_end=6.0, stage="sim")
        tracer.add_span("untagged", lane="l", t_start=0.0, t_end=99.0)
        tracer.instant("notify", lane="l", step=1)
        totals = tracer.trace.stage_totals()
        assert totals == {"sim": pytest.approx(5.0), "move": pytest.approx(1.0)}
        assert tracer.trace.spans_with(stage="sim")[0].name == "a"
        assert tracer.trace.instants[0].name == "notify"
        with pytest.raises(ValueError):
            tracer.trace.stage_totals(clock="cpu")


class TestNullTracerAndInstall:
    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.begin("x", lane="l", step=1)
        NULL_TRACER.end(span)
        with NULL_TRACER.span("y") as inert:
            assert inert.tags == {}
        NULL_TRACER.instant("i")
        NULL_TRACER.step("sched.bucket_dead", "l", bucket="b")
        NULL_TRACER.metrics.counter("c").extend([1])
        NULL_TRACER.metrics.histogram("h").extend([1.0])
        assert NULL_TRACER.trace.spans == []
        # Each read is a fresh empty registry: nothing written sticks.
        metrics = NULL_TRACER.metrics
        assert metrics is not NULL_TRACER.metrics
        assert not (metrics.counters or metrics.gauges or metrics.histograms)

    def test_tracing_context_installs_and_restores(self):
        assert get_tracer() is NULL_TRACER
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
            with tracing() as nested:
                assert get_tracer() is nested
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER


class TestMetricsRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        c.extend([10])
        c.extend([2.5])
        assert c.value == pytest.approx(12.5)
        assert reg.counter("bytes") is c  # created once, reused
        with pytest.raises(ValueError):
            c.extend([-1])
        with pytest.raises(ValueError):  # one negative refuses the batch
            c.extend([1, -1])
        assert c.value == pytest.approx(12.5)

    def test_gauge_tracks_min_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        for v in (3, 1, 7, 4):
            g.set(v)
        assert g.value == 4 and g.vmin == 1 and g.vmax == 7
        assert g.n_samples == 4

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(1, 101):
            h.extend([float(v)])
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(100) == 100.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_series_recorded_with_clock(self):
        times = [0.0]
        reg = MetricsRegistry(clock=lambda: times[0])
        c = reg.counter("events")
        c.extend([1])
        times[0] = 2.0
        c.extend([3])
        assert list(zip(c.times, c.values)) == [(0.0, 1), (2.0, 4)]

    def test_snapshot_and_summary(self):
        reg = MetricsRegistry()
        reg.counter("n").extend([7])
        reg.gauge("q").set(3)
        reg.histogram("t").extend([1.5])
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 7
        assert snap["gauges"]["q"]["max"] == 3
        assert snap["histograms"]["t"]["count"] == 1
        json.dumps(snap)  # JSON-safe
        text = reg.summary()
        assert "n" in text and "q" in text and "t" in text
        assert MetricsRegistry().summary() == "(no metrics)"

    def test_empty_and_unset_instruments(self):
        reg = MetricsRegistry()
        h = reg.histogram("never")
        assert h.count == 0 and h.mean == 0.0
        assert h.percentile(50) == 0.0  # no observations yet
        assert h.vmin == 0.0 and h.vmax == 0.0
        g = reg.gauge("untouched")
        assert g.value == 0.0 and g.n_samples == 0
        snap = reg.snapshot()
        # never-touched instruments stay out of the snapshot entirely
        assert "never" not in snap["histograms"]
        assert "untouched" not in snap["gauges"]
        json.dumps(snap)

    def test_histogram_percentile_bounds(self):
        h = MetricsRegistry().histogram("lat")
        h.extend([5.0])
        for bad in (-0.1, 100.1):
            with pytest.raises(ValueError):
                h.percentile(bad)
        assert h.percentile(0) == h.percentile(100) == 5.0

    def test_histogram_sorted_view_invalidated_on_observe(self):
        h = MetricsRegistry().histogram("lat")
        for v in (3.0, 1.0):
            h.extend([v])
        assert h.percentile(100) == 3.0  # caches the sorted view
        h.extend([9.0])                  # must invalidate it
        assert h.percentile(100) == 9.0
        assert h.percentile(0) == 1.0

    def test_histogram_uncapped_keeps_everything(self):
        h = MetricsRegistry().histogram("all")
        for v in range(500):
            h.extend([float(v)])
        assert len(h.values) == 500
        assert h.percentile(50) == pytest.approx(249.5, abs=1.0)


class TestChromeExport:
    def test_valid_doc_with_instants_and_counters(self):
        with tracing() as tracer:
            with tracer.span("step", lane="sim", stage="simulation", step=0):
                pass
            tracer.instant("ready", lane="sched", task="t0")
            tracer.metrics.counter("pulls").extend([2])
        doc = to_chrome_trace(tracer.trace, tracer.metrics)
        assert validate_chrome_trace(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "B", "E", "i", "C"} <= phases

    def test_overlapping_spans_get_distinct_tids(self):
        tracer = Tracer()
        tracer.add_span("a", lane="bucket", t_start=0.0, t_end=10.0)
        tracer.add_span("b", lane="bucket", t_start=5.0, t_end=15.0)
        doc = to_chrome_trace(tracer.trace)
        assert validate_chrome_trace(doc) == []
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        assert len(begins) == 2
        assert len({e["tid"] for e in begins}) == 2  # split onto sub-rows

    def test_nested_spans_share_a_row(self):
        tracer = Tracer()
        tracer.add_span("outer", lane="l", t_start=0.0, t_end=10.0)
        tracer.add_span("inner", lane="l", t_start=2.0, t_end=8.0)
        doc = to_chrome_trace(tracer.trace)
        assert validate_chrome_trace(doc) == []
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        assert len({e["tid"] for e in begins}) == 1

    def test_wall_clock_export(self):
        with tracing() as tracer:
            with tracer.span("w", lane="l"):
                pass
        doc = to_chrome_trace(tracer.trace, clock="wall")
        assert validate_chrome_trace(doc) == []
        with pytest.raises(ValueError):
            to_chrome_trace(tracer.trace, clock="cpu")

    def test_validator_catches_broken_traces(self):
        assert validate_chrome_trace({}) != []
        orphan_end = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("no open B" in p for p in validate_chrome_trace(orphan_end))
        unclosed = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("unclosed" in p for p in validate_chrome_trace(unclosed))
        missing = {"traceEvents": [{"ph": "i", "ts": 0}]}
        assert any("missing keys" in p for p in validate_chrome_trace(missing))

    def test_write_chrome_trace_and_jsonl(self, tmp_path):
        with tracing() as tracer:
            with tracer.span("s", lane="l", step=1):
                pass
            tracer.instant("i", lane="l")
            tracer.metrics.counter("c").extend([1])
        out = tmp_path / "t.json"
        doc = write_chrome_trace(str(out), tracer.trace, tracer.metrics)
        assert json.loads(out.read_text()) == doc
        jl = tmp_path / "t.jsonl"
        n = write_jsonl(str(jl), tracer.trace, tracer.metrics)
        lines = [json.loads(x) for x in jl.read_text().splitlines()]
        assert len(lines) == n == 3  # span + instant + metrics
        assert {ln["type"] for ln in lines} == {"span", "instant", "metrics"}

    def test_lane_summary_lists_every_lane(self):
        tracer = Tracer()
        tracer.add_span("a", lane="sim", t_start=0.0, t_end=2.0)
        tracer.instant("n", lane="sched")
        text = lane_summary(tracer.trace)
        assert "sim" in text and "sched" in text


class TestCriticalPath:
    def _pipeline_trace(self):
        """Hand-built two-step DAG: sim -> movement -> shared bucket."""
        tracer = Tracer()
        tracer.add_span("sim.step", lane="sim", t_start=0.0, t_end=10.0,
                        stage="simulation", step=0)
        tracer.add_span("sim.step", lane="sim", t_start=10.0, t_end=20.0,
                        stage="simulation", step=1)
        tracer.add_span("move", lane="net", t_start=10.0, t_end=12.0,
                        stage="movement", step=0)
        tracer.add_span("move", lane="net", t_start=20.0, t_end=22.0,
                        stage="movement", step=1)
        tracer.add_span("glue", lane="bucket", t_start=12.0, t_end=30.0,
                        stage="intransit", step=0)
        # step 1's glue waits for the bucket, not its own movement:
        tracer.add_span("glue", lane="bucket", t_start=30.0, t_end=45.0,
                        stage="intransit", step=1)
        return tracer.trace

    def test_blocking_chain_and_stage_shares(self):
        cp = critical_path(self._pipeline_trace())
        names = [(s.lane, s.tags["step"]) for s in cp.spans]
        assert names == [("sim", 0), ("net", 0), ("bucket", 0), ("bucket", 1)]
        assert cp.makespan == pytest.approx(45.0)
        assert cp.busy_time == pytest.approx(45.0)
        assert cp.wait_time == pytest.approx(0.0)
        assert cp.stage_totals["intransit"] == pytest.approx(33.0)
        assert cp.bounding_stage == "intransit"
        table = cp.table()
        assert "bounded by: intransit" in table

    def test_wait_gap_counted(self):
        tracer = Tracer()
        a = tracer.add_span("produce", lane="a", t_start=0.0, t_end=5.0,
                            stage="simulation")
        tracer.add_span("consume", lane="b", t_start=7.0, t_end=9.0,
                        stage="intransit", follows=a.span_id)
        cp = critical_path(tracer.trace)
        assert [s.name for s in cp.spans] == ["produce", "consume"]
        assert cp.makespan == pytest.approx(9.0)
        assert cp.wait_time == pytest.approx(2.0)

    def test_empty_trace(self):
        empty = critical_path(Tracer().trace)
        assert empty.spans == [] and empty.makespan == 0.0

    def test_reconcile_rows(self):
        rows = reconcile_totals(
            observed={"simulation": 100.4, "insitu": 0.0},
            expected={"simulation": 100.0, "insitu": 2.0})
        by_stage = {r.stage: r for r in rows}
        assert by_stage["simulation"].ok(0.01)
        assert by_stage["simulation"].rel_err == pytest.approx(0.004)
        assert not by_stage["insitu"].ok(0.01)


class TestTracedSchedule:
    def test_reconciles_with_breakdown_within_1pct(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        plan = ReplayPlan(n_steps=3)
        with tracing() as tracer:
            result = exp.run_schedule(plan)
        expected = exp.expected_stage_totals(plan)
        assert get_tracer() is NULL_TRACER  # context restored
        totals = tracer.trace.stage_totals()
        observed = {
            "simulation": totals.get("simulation", 0.0),
            "insitu": totals.get("insitu", 0.0),
            "movement+intransit": (totals.get("movement", 0.0)
                                   + totals.get("intransit", 0.0)),
        }
        rows = reconcile_totals(observed, expected)
        assert rows and all(row.ok(0.01) for row in rows)
        assert result.assignments  # queue trace rode along
        doc = to_chrome_trace(tracer.trace, tracer.metrics)
        assert validate_chrome_trace(doc) == []
        cp = critical_path(tracer.trace)
        assert cp.spans and cp.bounding_stage is not None


class TestGanttAdapter:
    def test_span_rejects_non_finite_times(self):
        with pytest.raises(ValueError):
            Span(actor="a", start=math.nan, end=1.0)
        with pytest.raises(ValueError):
            Span(actor="a", start=0.0, end=math.inf)
        with pytest.raises(ValueError):
            Span(actor="a", start=2.0, end=1.0)

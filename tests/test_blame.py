"""Tests for latency blame attribution and trace diffing."""

import argparse
import re

import pytest

from repro.cli import build_parser
from repro.core import ExperimentConfig, ScaledExperiment
from repro.faults import FaultConfig, run_resilience_experiment
from repro.obs import (
    BLAME_BUCKETS,
    Tracer,
    blame,
    diff_traces,
    flow_edge_totals,
    render_trace_diff,
    tracing,
    write_trace_diff,
)
from repro.obs.blame import BlameBreakdown
from repro.obs.flow import (
    BLAME_COMPUTE,
    BLAME_QUEUE_WAIT,
    BLAME_RETRY_BACKOFF,
    BLAME_SCHEDULER_IDLE,
    BLAME_TRANSPORT,
    EDGE_GRANT,
    EDGE_NOTIFY,
    EDGE_QUEUE,
    EDGE_RETRY,
    EDGE_SERVICE,
    FlowHop,
)


def _traced_schedule(n_steps=4, n_buckets=4):
    exp = ScaledExperiment(ExperimentConfig.paper_4896())
    with tracing() as tracer:
        exp.run_schedule(n_steps=n_steps, n_buckets=n_buckets)
    return tracer.trace


def _traced_resilience(config, **kwargs):
    with tracing() as tracer:
        report = run_resilience_experiment(config=config, **kwargs)
    return tracer.trace, report


class TestBlameBreakdown:
    def test_exact_sum_on_paper_schedule(self):
        trace = _traced_schedule()
        report = blame(trace)
        assert report.method == "causal"
        # Acceptance: the five buckets sum to the makespan within 1e-6.
        assert abs(report.overall.total - report.makespan) <= 1e-6
        assert report.overall.check(tol=1e-6)
        assert set(report.overall.buckets) == set(BLAME_BUCKETS)
        assert all(v >= 0.0 for v in report.overall.buckets.values())

    def test_per_step_windows_sum_exactly(self):
        trace = _traced_schedule()
        report = blame(trace)
        assert len(report.steps) == 4
        for step in report.steps:
            assert step.breakdown.check(tol=1e-6)
            assert step.latency > 0
            assert step.n_flows == 3  # three hybrid analyses per step

    def test_compute_dominates_fault_free_schedule(self):
        report = blame(_traced_schedule())
        assert report.overall.share(BLAME_COMPUTE) > 0.9
        assert report.overall.buckets[BLAME_RETRY_BACKOFF] == 0.0

    def test_hand_built_chain_buckets(self):
        # insitu [0,1] --notify 1.2--queue 2--> wire [2,3] --> dst [3,6]
        tracer = Tracer()
        src = tracer.add_span("produce", lane="sim", t_start=0.0, t_end=1.0,
                              stage="insitu")
        flow = tracer.flow_begin("task", src_span=src, t=1.0)
        flow.hops.append(FlowHop(1.2, EDGE_NOTIFY, "sched"))
        flow.hops.append(FlowHop(2.0, EDGE_QUEUE, "sched"))
        wire = tracer.add_span("pull", lane="b", t_start=2.0, t_end=3.0,
                               stage="movement")
        tracer.flow_through(flow, EDGE_SERVICE, wire)
        dst = tracer.add_span("consume", lane="b", t_start=3.0, t_end=6.0,
                              stage="intransit")
        tracer.flow_end(flow, EDGE_SERVICE, dst)

        report = blame(tracer.trace)
        b = report.overall.buckets
        assert report.makespan == pytest.approx(6.0)
        assert b[BLAME_COMPUTE] == pytest.approx(1.0 + 3.0)  # insitu + dst
        assert b[BLAME_TRANSPORT] == pytest.approx(0.2 + 1.0)  # notify+wire
        assert b[BLAME_QUEUE_WAIT] == pytest.approx(0.8)
        assert report.overall.check()

    def test_unexplained_gap_charges_scheduler_idle(self):
        tracer = Tracer()
        tracer.add_span("a", lane="l", t_start=0.0, t_end=1.0,
                        stage="simulation")
        tracer.add_span("b", lane="l", t_start=5.0, t_end=6.0,
                        stage="simulation")
        report = blame(tracer.trace)
        assert report.overall.buckets[BLAME_SCHEDULER_IDLE] == pytest.approx(
            4.0)
        assert report.overall.check()

    def test_empty_trace(self):
        report = blame(Tracer().trace)
        assert report.makespan == 0.0
        assert report.overall.check()
        assert report.steps == []

    def test_breakdown_always_has_all_buckets(self):
        bd = BlameBreakdown(t_start=0.0, t_end=0.0)
        assert set(bd.buckets) == set(BLAME_BUCKETS)
        assert bd.share(BLAME_COMPUTE) == 0.0

    def test_report_table_and_dict(self):
        report = blame(_traced_schedule())
        text = report.table()
        for bucket in BLAME_BUCKETS:
            assert bucket in text
        d = report.to_dict()
        assert d["makespan"] == pytest.approx(report.makespan)
        assert sum(d["overall"].values()) == pytest.approx(d["makespan"])
        assert len(d["steps"]) == len(report.steps)

    def test_flow_edge_totals_excludes_span_residency(self):
        tracer = Tracer()
        flow = tracer.flow_begin("task", t=0.0)
        flow.hops.append(FlowHop(0.5, EDGE_NOTIFY, "s"))
        flow.hops.append(FlowHop(2.0, EDGE_QUEUE, "s"))
        wire = tracer.add_span("pull", lane="b", t_start=2.0, t_end=3.0,
                               stage="movement")
        tracer.flow_through(flow, EDGE_GRANT, wire)
        dst = tracer.add_span("consume", lane="b", t_start=3.0, t_end=5.0,
                              stage="intransit")
        tracer.flow_end(flow, EDGE_SERVICE, dst)
        # Hop gaps are charged to their edge kind; the wire span's
        # residency jumps the cursor, so nothing leaks into ``service``.
        assert flow_edge_totals(tracer.trace, flow) == {
            EDGE_NOTIFY: pytest.approx(0.5), EDGE_QUEUE: pytest.approx(1.5)}


class TestRetryBlame:
    def test_retry_backoff_charged_under_faults(self):
        trace, rep = _traced_resilience(
            FaultConfig(pull_failure_rate=0.35, seed=7),
            n_tasks=12, n_buckets=2, pull_backoff_base=5e-3)
        assert rep.pull_failures_injected > 0
        report = blame(trace)
        assert report.overall.check(tol=1e-6)
        assert report.overall.buckets[BLAME_RETRY_BACKOFF] > 0.0
        assert report.edge_totals.get(EDGE_RETRY, 0.0) > 0.0


class TestTraceDiff:
    def test_self_diff_is_all_zeros(self):
        trace = _traced_schedule()
        diff = diff_traces(trace, trace)
        assert diff.makespan_delta == 0.0
        assert all(a == b for a, b in diff.blame_buckets.values())
        assert diff.unmatched_a == diff.unmatched_b == 0
        assert all(fd.delta == 0.0 for fd in diff.flows)

    def test_fault_diff_blames_retry_backoff(self):
        """Acceptance: diffing a fault-injected run against the fault-free
        run attributes most of the makespan delta to retry-and-backoff."""
        clean, _ = _traced_resilience(
            FaultConfig(), n_tasks=12, n_buckets=2, pull_backoff_base=5e-3)
        faulted, rep = _traced_resilience(
            FaultConfig(pull_failure_rate=0.35, seed=7),
            n_tasks=12, n_buckets=2, pull_backoff_base=5e-3)
        assert rep.pull_failures_injected > 0
        diff = diff_traces(clean, faulted, a_label="clean",
                           b_label="faulted")
        assert diff.makespan_delta > 0
        assert diff.dominant_bucket() == BLAME_RETRY_BACKOFF
        assert diff.blame_delta_share(BLAME_RETRY_BACKOFF) > 0.5
        text = diff.table()
        assert "retry_backoff" in text and "faulted" in text

    def test_flows_align_by_task_id(self):
        clean, _ = _traced_resilience(FaultConfig(), n_tasks=6, n_buckets=2)
        other, _ = _traced_resilience(FaultConfig(), n_tasks=6, n_buckets=2)
        diff = diff_traces(clean, other)
        assert len(diff.flows) == 6
        assert diff.unmatched_a == diff.unmatched_b == 0

    def test_step_latencies_aligned(self):
        a = _traced_schedule(n_steps=3)
        b = _traced_schedule(n_steps=3)
        diff = diff_traces(a, b)
        assert set(diff.step_latencies) == {0, 1, 2}
        for la, lb in diff.step_latencies.values():
            assert la == pytest.approx(lb)


class TestDiffHtml:
    def test_render_contains_buckets_and_labels(self):
        clean, _ = _traced_resilience(
            FaultConfig(), n_tasks=6, n_buckets=2, pull_backoff_base=5e-3)
        faulted, _ = _traced_resilience(
            FaultConfig(pull_failure_rate=0.35, seed=7),
            n_tasks=6, n_buckets=2, pull_backoff_base=5e-3)
        diff = diff_traces(clean, faulted, a_label="clean",
                           b_label="faulted")
        page = render_trace_diff(diff)
        assert page.startswith("<!DOCTYPE html>")
        for bucket in BLAME_BUCKETS:
            assert bucket in page
        assert "clean" in page and "faulted" in page
        assert "<script" not in page  # self-contained, no JS

    def test_write_trace_diff(self, tmp_path):
        trace = _traced_schedule(n_steps=2)
        diff = diff_traces(trace, trace)
        out = write_trace_diff(tmp_path / "diff.html", diff)
        assert out.exists()
        html = out.read_text()
        assert "trace diff" in html
        # The footer names a verb and a flag the CLI accepts.
        verb, flag = re.search(r"<footer>generated by <code>python -m repro "
                               r"(\S+) (\S+)</code>", html).groups()
        verbs = next(a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices
        assert flag in verbs[verb]._option_string_actions

"""Tests for causal flow tracing: recording, propagation, the causal
critical path, the tag index, and the Chrome/JSONL flow exports."""

import json

import pytest

from repro.core import ExperimentConfig, ScaledExperiment
from repro.obs import (
    NULL_TRACER,
    Tracer,
    critical_path,
    lane_summary,
    load_trace,
    load_trace_jsonl,
    to_chrome_trace,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flow import (
    EDGE_GRANT,
    EDGE_NOTIFY,
    EDGE_QUEUE,
    EDGE_RETRY,
    EDGE_SERVICE,
    FlowContext,
)


def _traced_schedule(n_steps=4, n_buckets=4):
    exp = ScaledExperiment(ExperimentConfig.paper_4896())
    with tracing() as tracer:
        exp.run_schedule(n_steps=n_steps, n_buckets=n_buckets)
    return tracer.trace


class TestFlowRecording:
    def test_flow_begin_step_end_chains(self):
        tracer = Tracer()
        src = tracer.add_span("produce", lane="sim", t_start=0.0, t_end=1.0,
                              stage="insitu")
        flow = tracer.flow_begin("task", src_span=src, t=1.0, step=0)
        assert isinstance(flow, FlowContext)
        assert flow.src_span_id == src.span_id
        assert src.flow_out == [flow.flow_id]
        assert not flow.closed

        tracer.flow_step(flow, EDGE_NOTIFY, "scheduler", t=1.1)
        tracer.flow_step(flow, EDGE_QUEUE, "scheduler", t=1.5)
        wire = tracer.add_span("pull", lane="bucket", t_start=1.5, t_end=2.0,
                               stage="movement")
        tracer.flow_through(flow, EDGE_GRANT, wire)
        dst = tracer.add_span("consume", lane="bucket", t_start=2.0,
                              t_end=5.0, stage="intransit")
        tracer.flow_end(flow, EDGE_SERVICE, dst)

        assert flow.closed and flow.dst_span_id == dst.span_id
        assert wire.flow_in == [flow.flow_id]
        assert wire.flow_out == [flow.flow_id]
        assert dst.flow_in == [flow.flow_id]
        assert flow.span_ids() == [src.span_id, wire.span_id, dst.span_id]
        assert [h.kind for h in flow.hops] == [
            EDGE_NOTIFY, EDGE_QUEUE, EDGE_GRANT, EDGE_SERVICE]

    def test_null_tracer_flow_methods_are_inert(self):
        flow = NULL_TRACER.flow_begin("task")
        assert flow is None
        assert NULL_TRACER.flow_step(None, EDGE_QUEUE, "l") is None
        assert NULL_TRACER.flow_through(None, EDGE_GRANT, None) is None
        assert NULL_TRACER.flow_end(None, EDGE_SERVICE, None) is None
        assert NULL_TRACER.trace.flows == []

    def test_none_flow_short_circuits_on_real_tracer(self):
        tracer = Tracer()
        assert tracer.flow_step(None, EDGE_QUEUE, "l") is None
        assert tracer.flow_end(None, EDGE_SERVICE, None) is None
        assert tracer.trace.flows == []


class TestFlowPropagation:
    def test_traced_schedule_records_one_flow_per_task(self):
        trace = _traced_schedule()
        # 4 steps x 3 hybrid analyses
        assert len(trace.flows) == 12
        assert all(f.closed for f in trace.flows)
        smap = trace.span_map()
        for flow in trace.flows:
            chain = flow.span_ids()
            assert len(chain) >= 3  # insitu src, wire, intransit dst
            assert smap[chain[0]].stage == "insitu"
            assert smap[chain[-1]].stage == "intransit"
            kinds = [h.kind for h in flow.hops]
            assert kinds[0] == EDGE_NOTIFY
            assert EDGE_QUEUE in kinds and EDGE_SERVICE in kinds
            # hop times are monotone along the chain
            times = [h.t for h in flow.hops]
            assert times == sorted(times)

    def test_flows_carry_task_identity_tags(self):
        trace = _traced_schedule()
        for flow in trace.flows:
            assert "task_id" in flow.tags
            assert "analysis" in flow.tags
            assert "step" in flow.tags

    def test_retry_hop_recorded_on_pull_backoff(self):
        from repro.faults import FaultConfig, run_resilience_experiment
        from repro.obs import tracing

        with tracing() as tracer:
            run_resilience_experiment(
                config=FaultConfig(pull_failure_rate=0.5, seed=3),
                n_tasks=8, n_buckets=2, pull_backoff_base=1e-3)
        retry_hops = [h for f in tracer.trace.flows for h in f.hops
                      if h.kind == EDGE_RETRY]
        assert retry_hops, "injected pull faults must leave retry hops"
        # transport-level retry hops carry their backoff delay
        assert any(h.tags.get("backoff", 0) > 0 for h in retry_hops)


class TestCausalCriticalPath:
    def test_agrees_with_heuristic_on_clean_schedule(self, tmp_path):
        trace = _traced_schedule()
        write_chrome_trace(str(tmp_path / "t.json"), trace)
        flowless = load_trace(str(tmp_path / "t.json"))
        causal = critical_path(trace)
        heuristic = critical_path(flowless)
        assert causal.method == "causal"
        assert heuristic.method == "heuristic"
        # Recorded causality explains at least as much time as the
        # step-tag fallback a Chrome-loaded trace gets.
        assert causal.makespan >= heuristic.makespan - 1e-9
        assert causal.spans[-1].t_end == pytest.approx(
            heuristic.spans[-1].t_end, abs=1e-5)

    def test_falls_back_to_heuristic_without_flows(self):
        tracer = Tracer()
        tracer.add_span("a", lane="l", t_start=0.0, t_end=1.0,
                        stage="simulation")
        cp = critical_path(tracer.trace)
        assert cp.method == "heuristic"

    def test_prefers_recorded_producer_over_time_order(self):
        # Two producers end before the consumer starts; the flow names the
        # *earlier* one as the true cause, so the later-ending bystander
        # on another lane must not be picked.
        tracer = Tracer()
        true_src = tracer.add_span("true-src", lane="a", t_start=0.0,
                                   t_end=2.0, stage="insitu")
        tracer.add_span("red-herring", lane="b", t_start=0.0, t_end=3.9,
                        stage="insitu")
        flow = tracer.flow_begin("task", src_span=true_src, t=2.0)
        dst = tracer.add_span("consume", lane="c", t_start=4.0, t_end=6.0,
                              stage="intransit")
        tracer.flow_end(flow, EDGE_SERVICE, dst)
        causal = critical_path(tracer.trace)
        names = [s.name for s in causal.spans]
        assert names == ["true-src", "consume"]


class TestAnalysisEdgeCases:
    def test_empty_trace(self):
        empty = Tracer().trace
        assert critical_path(empty).spans == []
        assert critical_path(empty).makespan == 0.0
        text = lane_summary(empty)
        assert "trace lanes" in text

    def test_single_span(self):
        tracer = Tracer()
        tracer.add_span("only", lane="l", t_start=1.0, t_end=4.0,
                        stage="simulation")
        cp = critical_path(tracer.trace)
        assert [s.name for s in cp.spans] == ["only"]
        assert cp.makespan == pytest.approx(3.0)
        assert cp.bounding_stage == "simulation"

    def test_no_stage_tagged_spans(self):
        tracer = Tracer()
        tracer.add_span("untagged", lane="l", t_start=0.0, t_end=2.0)
        assert critical_path(tracer.trace).spans == []
        # lane_summary still counts the span
        assert "untagged" not in lane_summary(tracer.trace)  # names elided
        assert "l" in lane_summary(tracer.trace)

    def test_lane_summary_open_spans_only(self):
        tracer = Tracer()
        tracer.begin("open", lane="l")
        text = lane_summary(tracer.trace)
        assert "l" in text  # lane listed even with zero closed spans


class TestTagIndex:
    def test_index_matches_linear_scan(self):
        trace = _traced_schedule()
        indexed = trace.spans_with(stage="intransit")
        linear = [s for s in trace.closed_spans()
                  if s.tags.get("stage") == "intransit"]
        assert indexed == linear
        both = trace.spans_with(stage="intransit", step=0)
        assert both == [s for s in linear if s.tags.get("step") == 0]

    def test_index_invalidated_by_new_spans(self):
        tracer = Tracer()
        tracer.add_span("a", lane="l", t_start=0.0, t_end=1.0, stage="x")
        assert len(tracer.trace.spans_with(stage="x")) == 1
        tracer.add_span("b", lane="l", t_start=1.0, t_end=2.0, stage="x")
        assert len(tracer.trace.spans_with(stage="x")) == 2

    def test_index_invalidated_by_end(self):
        tracer = Tracer()
        span = tracer.begin("w", lane="l", stage="x")
        assert tracer.trace.spans_with(stage="x") == []
        tracer.end(span)
        assert tracer.trace.spans_with(stage="x") == [span]

    def test_unhashable_query_value_falls_back(self):
        tracer = Tracer()
        tracer.add_span("a", lane="l", t_start=0.0, t_end=1.0, key=[1, 2])
        assert tracer.trace.spans_with(key=[1, 2])  # no TypeError

    def test_no_tags_returns_all_closed(self):
        trace = _traced_schedule()
        assert trace.spans_with() == trace.closed_spans()


class TestFlowExport:
    def test_chrome_doc_carries_flow_events(self):
        trace = _traced_schedule()
        doc = to_chrome_trace(trace)
        flow_events = [e for e in doc["traceEvents"]
                       if e.get("ph") in ("s", "t", "f")]
        assert flow_events
        ids = {e["id"] for e in flow_events}
        assert len(ids) == len(trace.flows)
        by_ph = {ph: sum(1 for e in flow_events if e["ph"] == ph)
                 for ph in ("s", "t", "f")}
        assert by_ph["s"] == by_ph["f"] == len(ids)
        assert all(e.get("bp") == "e" for e in flow_events
                   if e["ph"] == "f")
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_flow_event_without_id(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
            {"name": "x", "ph": "E", "ts": 10, "pid": 1, "tid": 0},
            {"name": "flow:task", "ph": "s", "ts": 5, "pid": 1, "tid": 0},
        ]}
        assert any("no 'id'" in p for p in validate_chrome_trace(doc))

    def test_validator_flags_unpaired_flow(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
            {"name": "x", "ph": "E", "ts": 10, "pid": 1, "tid": 0},
            {"name": "flow:task", "ph": "s", "ts": 5, "pid": 1, "tid": 0,
             "id": 1},
        ]}
        assert any("no finish" in p for p in validate_chrome_trace(doc))

    def test_validator_flags_finish_before_start(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
            {"name": "x", "ph": "E", "ts": 10, "pid": 1, "tid": 0},
            {"name": "f", "ph": "f", "ts": 2, "pid": 1, "tid": 0, "id": 9,
             "bp": "e"},
            {"name": "f", "ph": "s", "ts": 8, "pid": 1, "tid": 0, "id": 9},
        ]}
        assert any("before it starts" in p
                   for p in validate_chrome_trace(doc))

    def test_validator_flags_unbound_flow_event(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
            {"name": "x", "ph": "E", "ts": 10, "pid": 1, "tid": 0},
            {"name": "f", "ph": "s", "ts": 50, "pid": 1, "tid": 0, "id": 2},
            {"name": "f", "ph": "f", "ts": 60, "pid": 1, "tid": 0, "id": 2,
             "bp": "e"},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("binds to no slice" in p for p in problems)

    def test_jsonl_round_trip_preserves_flows(self, tmp_path):
        trace = _traced_schedule()
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), trace)
        back = load_trace_jsonl(str(path))
        assert len(back.spans) == len(trace.spans)
        assert len(back.flows) == len(trace.flows)
        assert len(back.instants) == len(trace.instants)
        for a, b in zip(trace.flows, back.flows):
            assert a.flow_id == b.flow_id
            assert a.span_ids() == b.span_ids()
            assert [h.kind for h in a.hops] == [h.kind for h in b.hops]
            assert [h.t for h in a.hops] == pytest.approx(
                [h.t for h in b.hops])

    def test_load_trace_sniffs_both_formats(self, tmp_path):
        trace = _traced_schedule()
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        write_chrome_trace(str(chrome), trace)
        write_jsonl(str(jsonl), trace)
        from_chrome = load_trace(str(chrome))
        from_jsonl = load_trace(str(jsonl))
        assert len(from_chrome.spans) == len(trace.closed_spans())
        assert from_chrome.flows == []  # chrome drops hop fidelity
        assert len(from_jsonl.flows) == len(trace.flows)
        # stage totals survive either way
        assert from_chrome.stage_totals() == pytest.approx(
            trace.stage_totals())

    @pytest.mark.parametrize("damaged", [
        '{"type": "span", "lane": "l", "span_id": 1, "t_start": 0.0}',
        '{"type": "instant", "name": "i", "lane": "l"}',
        '{"type": "flow", "flow_id": 1, "kind": "task", "t_begin": 0.0, '
        '"hops": [{"t": 1.0, "kind": "queue"}]}',
        '[1, 2]',
        '{not json',
    ], ids=["span-no-name", "instant-no-t", "hop-no-lane", "not-an-object",
            "not-json"])
    def test_damaged_jsonl_line_is_located(self, tmp_path, damaged):
        path = tmp_path / "t.jsonl"
        good = ('{"type": "span", "name": "a", "lane": "l", "span_id": 1, '
                '"t_start": 0.0, "t_end": 1.0}')
        path.write_text(f"{good}\n\n{damaged}\n")
        with pytest.raises(ValueError, match=r"t\.jsonl:3: "):
            load_trace_jsonl(str(path))

    def test_jsonl_flow_line_shape(self, tmp_path):
        trace = _traced_schedule()
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), trace)
        flow_lines = [json.loads(line) for line in path.read_text().splitlines()
                      if '"type": "flow"' in line]
        assert flow_lines
        first = flow_lines[0]
        assert {"flow_id", "kind", "t_begin", "src_span_id", "dst_span_id",
                "hops", "tags"} <= set(first)
        assert all({"t", "kind", "lane"} <= set(h) for h in first["hops"])

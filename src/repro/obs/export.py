"""Trace exporters: Chrome trace-event JSON, JSON lines, text summaries.

The Chrome export is Perfetto-loadable (``ui.perfetto.dev`` → "Open trace
file"). Lanes map to ``pid``s; within a lane, spans are packed onto the
fewest sub-rows (``tid``s) such that each row's spans are sequential or
properly nested — so the emitted ``B``/``E`` pairs always balance per
``(pid, tid)``, even when a lane carries overlapping spans (streaming
prefetch). Timestamps are the tracer's trace clock (DES simulated time in
an engine-attached run) in microseconds; pass ``clock="wall"`` to export
the wall-clock timeline of a functional run instead.

:func:`validate_chrome_trace` is the structural checker the CLI and tests
use: every event carries ``name/ph/ts/pid/tid``, ``B``/``E`` pairs
balance per lane row, and flow events (``s``/``t``/``f``) pair up per
``id`` and bind inside a slice on their row.

Recorded flows (:class:`~repro.obs.flow.FlowContext`) export as Chrome
flow events — Perfetto draws them as arrows from the producer span
through every intermediate hand-off span to the consumer — and as
full-fidelity ``{"type": "flow"}`` JSON lines. :func:`load_trace` /
:func:`load_trace_jsonl` reconstruct a :class:`Trace` from either file
format so two runs can be diffed offline (``repro replay --diff``).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from operator import itemgetter
from typing import Any

from repro.obs.flow import FlowContext, FlowHop
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import InstantRecord, SpanRecord, Trace
from repro.util.tables import TextTable

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "to_jsonl_lines",
    "write_jsonl",
    "load_trace",
    "load_trace_jsonl",
    "lane_summary",
]

_US = 1e6  # chrome trace timestamps are microseconds

#: Tag value types a JSON export keeps as they are (and finite floats).
_PLAIN = frozenset((str, int, bool, type(None)))


def _json_safe(tags: dict[str, Any]) -> dict[str, Any]:
    """``tags`` with every value JSON can carry kept, non-finite floats
    and other objects as their ``repr``."""
    for value in tags.values():
        if type(value) not in _PLAIN and not (type(value) is float
                                              and math.isfinite(value)):
            break
    else:
        return dict(tags)  # the common case: every value is plain
    out: dict[str, Any] = {}
    for key, value in tags.items():
        if isinstance(value, (str, int, bool)) or value is None:
            out[key] = value
        elif isinstance(value, float):
            out[key] = value if math.isfinite(value) else repr(value)
        else:
            out[key] = repr(value)
    return out


def _span_times(span: SpanRecord, clock: str) -> tuple[float, float]:
    if clock == "wall":
        return span.wall_start, span.wall_end
    return span.t_start, span.t_end


def _assign_rows(spans: list[SpanRecord], clock: str
                 ) -> list[list[tuple[float, float, SpanRecord]]]:
    """Pack a lane's spans onto rows where spans are disjoint or properly
    nested — the invariant that makes ``B``/``E`` emission balance. Each
    row holds ``(start, end, span)`` in start order."""
    timed = [(*_span_times(span, clock), span) for span in spans]
    timed.sort(key=lambda item: (item[0], -item[1], item[2].span_id))
    rows: list[list[tuple[float, float, SpanRecord]]] = []
    open_ends: list[list[float]] = []  # per row, stack of open end times
    for start, end, span in timed:
        placed = False
        for row, ends in zip(rows, open_ends):
            while ends and ends[-1] <= start:
                ends.pop()
            if not ends or ends[-1] >= end:
                row.append((start, end, span))
                ends.append(end)
                placed = True
                break
        if not placed:
            rows.append([(start, end, span)])
            open_ends.append([end])
    return rows


def _row_events(row: list[tuple[float, float, SpanRecord]], pid: int,
                tid: int, row_of: dict[int, tuple[int, int, float, float]]
                ) -> list[dict[str, Any]]:
    """Emit balanced B/E events for one row (spans disjoint or nested),
    and note each span's slice in ``row_of``."""
    events: list[dict[str, Any]] = []
    stack: list[tuple[float, str]] = []  # (end, name) of the open spans
    for start, end, span in row:
        row_of[span.span_id] = (pid, tid, start, end)
        while stack and stack[-1][0] <= start:
            closed_end, name = stack.pop()
            events.append({"name": name, "ph": "E", "ts": closed_end * _US,
                           "pid": pid, "tid": tid})
        event: dict[str, Any] = {"name": span.name, "ph": "B",
                                 "ts": start * _US, "pid": pid, "tid": tid}
        if span.category:
            event["cat"] = span.category
        if span.tags:
            event["args"] = _json_safe(span.tags)
        events.append(event)
        stack.append((end, span.name))
    while stack and stack[-1][0] <= math.inf:  # a NaN end stays open
        closed_end, name = stack.pop()
        events.append({"name": name, "ph": "E", "ts": closed_end * _US,
                       "pid": pid, "tid": tid})
    return events


def _flow_events(trace: Trace,
                 row_of: dict[int, tuple[int, int, float, float]]
                 ) -> list[dict[str, Any]]:
    """Chrome flow events (``ph`` s/t/f) for every drawable flow.

    The arrow starts inside the producer span (``s`` at its end), steps
    through each intermediate chain span (``t`` at its start), and ends
    at the consumer span's start (``f`` with ``bp: "e"`` so viewers bind
    it to the enclosing slice). A flow needs at least two chain spans on
    exported rows to draw; shorter or unclosed flows are skipped.
    """
    events: list[dict[str, Any]] = []
    for flow in trace.flows:
        if not flow.closed:
            continue
        chain = [row_of[sid] for sid in flow.span_ids() if sid in row_of]
        if len(chain) < 2:
            continue
        name = f"flow:{flow.kind}"
        for i, (pid, tid, start, end) in enumerate(chain):
            event: dict[str, Any] = {
                "name": name, "cat": "flow", "id": flow.flow_id,
                "pid": pid, "tid": tid,
            }
            if i == 0:
                event["ph"] = "s"
                event["ts"] = end * _US
                if flow.tags:
                    event["args"] = _json_safe(flow.tags)
            elif i == len(chain) - 1:
                event["ph"] = "f"
                event["bp"] = "e"
                event["ts"] = start * _US
            else:
                event["ph"] = "t"
                event["ts"] = start * _US
            events.append(event)
    return events


def to_chrome_trace(trace: Trace, metrics: MetricsRegistry | None = None,
                    clock: str = "trace") -> dict[str, Any]:
    """Convert a trace (and optional counter series) to a Chrome trace doc.

    Each event is built once, in one pass per record kind: balanced
    ``B``/``E`` per lane row, flow arrows resolved against those rows,
    ``i`` instants, and one ``C`` event per counter or gauge sample.
    Counter series are stamped on the trace clock only and carry no wall
    time, so a ``clock="wall"`` export leaves them out (and with them
    the ``metrics`` process).
    """
    if clock not in ("trace", "wall"):
        raise ValueError(f"clock must be 'trace' or 'wall', got {clock!r}")
    wall = clock == "wall"
    lanes = trace.lanes()
    pid_of = {lane: i + 1 for i, lane in enumerate(lanes)}
    events: list[dict[str, Any]] = []
    for lane in lanes:
        pid = pid_of[lane]
        events.append({"name": "process_name", "ph": "M", "ts": 0,
                       "pid": pid, "tid": 0, "args": {"name": lane}})
    append = events.append

    spans_by_lane: dict[str, list[SpanRecord]] = {}
    for span in trace.closed_spans():
        spans_by_lane.setdefault(span.lane, []).append(span)
    #: span id -> (pid, tid, start, end) of its exported slice.
    row_of: dict[int, tuple[int, int, float, float]] = {}
    for lane, spans in spans_by_lane.items():
        pid = pid_of[lane]
        for tid, row in enumerate(_assign_rows(spans, clock)):
            events.extend(_row_events(row, pid, tid, row_of))

    events.extend(_flow_events(trace, row_of))

    for inst in trace.instants:
        event = {"name": inst.name, "ph": "i",
                 "ts": (inst.wall_t if wall else inst.t) * _US,
                 "pid": pid_of[inst.lane], "tid": 0, "s": "t"}
        if inst.tags:
            event["args"] = _json_safe(inst.tags)
        append(event)

    if metrics is not None and not wall:
        metrics_pid = len(lanes) + 1
        n_before = len(events)
        for group in (metrics.counters, metrics.gauges):
            for name, inst in sorted(group.items()):
                if not inst.times:
                    continue
                # One template per instrument; a sample fills in ts/args.
                template = {"name": name, "ph": "C", "ts": 0,
                            "pid": metrics_pid, "tid": 0, "args": None}
                copy = template.copy
                for t, value in zip(inst.times, inst.values):
                    event = copy()
                    event["ts"] = t * _US
                    event["args"] = {"value": value}
                    append(event)
        if len(events) > n_before:
            append({"name": "process_name", "ph": "M", "ts": 0,
                    "pid": metrics_pid, "tid": 0,
                    "args": {"name": "metrics"}})

    events.sort(key=itemgetter("ts"))  # stable: preserves B/E order at ties
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, trace: Trace,
                       metrics: MetricsRegistry | None = None,
                       clock: str = "trace") -> dict[str, Any]:
    doc = to_chrome_trace(trace, metrics, clock)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def validate_chrome_trace(doc: dict[str, Any]) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid).

    Checks: the document shape, that every event carries
    ``name/ph/ts/pid/tid``, that ``B``/``E`` pairs balance (LIFO, name
    matched) per ``(pid, tid)`` lane row, and that flow events
    (``s``/``t``/``f``) carry an ``id``, pair a start with a finish in
    time order, and bind inside some slice on their row.
    """
    problems: list[str] = []
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        return ["document has no 'traceEvents' list"]
    stacks: dict[tuple[Any, Any], list[tuple[str, float]]] = {}
    intervals: dict[tuple[Any, Any], list[tuple[float, float]]] = {}
    flow_events: list[tuple[int, dict[str, Any]]] = []
    for i, event in enumerate(events):
        missing = [k for k in ("name", "ph", "ts", "pid", "tid")
                   if k not in event]
        if missing:
            problems.append(f"event {i} missing keys {missing}: {event!r}")
            continue
        key = (event["pid"], event["tid"])
        if event["ph"] == "B":
            stacks.setdefault(key, []).append((event["name"], event["ts"]))
        elif event["ph"] == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"event {i}: E {event['name']!r} on "
                                f"pid/tid {key} with no open B")
                continue
            name, start_ts = stack[-1]
            if name != event["name"]:
                problems.append(f"event {i}: E {event['name']!r} closes "
                                f"B {name!r} on pid/tid {key}")
            stack.pop()
            intervals.setdefault(key, []).append((start_ts, event["ts"]))
        elif event["ph"] in ("s", "t", "f"):
            flow_events.append((i, event))
    for key, stack in stacks.items():
        if stack:
            names = [name for name, _ in stack]
            problems.append(f"pid/tid {key} ends with unclosed spans {names}")

    flows: dict[Any, dict[str, float]] = {}
    for i, event in flow_events:
        if "id" not in event:
            problems.append(f"event {i}: flow event {event['name']!r} "
                            f"({event['ph']}) has no 'id'")
            continue
        record = flows.setdefault(event["id"], {})
        ph, ts = event["ph"], event["ts"]
        if ph in record and ph in ("s", "f"):
            problems.append(f"event {i}: flow id {event['id']} has a "
                            f"duplicate {ph!r} event")
        record[ph] = max(ts, record.get(ph, ts)) if ph == "t" else ts
        key = (event["pid"], event["tid"])
        spans = intervals.get(key, [])
        if not any(start <= ts <= end for start, end in spans):
            problems.append(f"event {i}: flow event {event['name']!r} "
                            f"({ph}) at ts {ts} binds to no slice on "
                            f"pid/tid {key}")
    for flow_id, record in flows.items():
        if "s" not in record:
            problems.append(f"flow id {flow_id} has no start (s) event")
        if "f" not in record:
            problems.append(f"flow id {flow_id} has no finish (f) event")
        if "s" in record and "f" in record and record["f"] < record["s"]:
            problems.append(f"flow id {flow_id} finishes (ts {record['f']})"
                            f" before it starts (ts {record['s']})")
    return problems


def to_jsonl_lines(trace: Trace, metrics: MetricsRegistry | None = None
                   ) -> Iterator[str]:
    """The full event record as JSON lines (one object per line)."""
    for span in trace.spans:
        yield json.dumps({
            "type": "span", "name": span.name, "lane": span.lane,
            "span_id": span.span_id, "parent_id": span.parent_id,
            "category": span.category,
            "t_start": span.t_start,
            "t_end": span.t_end if span.closed else None,
            "wall_start": span.wall_start,
            "wall_end": span.wall_end if span.closed else None,
            "tags": _json_safe(span.tags),
        })
    for inst in trace.instants:
        yield json.dumps({
            "type": "instant", "name": inst.name, "lane": inst.lane,
            "t": inst.t, "wall_t": inst.wall_t,
            "tags": _json_safe(inst.tags),
        })
    for flow in trace.flows:
        yield json.dumps({
            "type": "flow", "flow_id": flow.flow_id, "kind": flow.kind,
            "t_begin": flow.t_begin,
            "src_span_id": flow.src_span_id,
            "dst_span_id": flow.dst_span_id,
            "tags": _json_safe(flow.tags),
            "hops": [{"t": hop.t, "kind": hop.kind, "lane": hop.lane,
                      "span_id": hop.span_id,
                      "tags": _json_safe(hop.tags)}
                     for hop in flow.hops],
        })
    if metrics is not None:
        yield json.dumps({"type": "metrics", **metrics.snapshot()})


def write_jsonl(path: str, trace: Trace,
                metrics: MetricsRegistry | None = None) -> int:
    """Write the JSON-lines event log; returns the number of lines."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in to_jsonl_lines(trace, metrics):
            fh.write(line + "\n")
            n += 1
    return n


def _append_jsonl_record(trace: Trace, rec: dict[str, Any]) -> None:
    """Add one decoded JSONL line to ``trace`` (metrics lines are skipped,
    any other record type is refused)."""
    kind = rec.get("type")
    if kind == "span":
        trace.log.append(SpanRecord(
            name=rec["name"], lane=rec["lane"],
            span_id=rec["span_id"], parent_id=rec.get("parent_id"),
            t_start=rec["t_start"],
            wall_start=rec.get("wall_start", rec["t_start"]),
            category=rec.get("category"),
            tags=rec.get("tags") or {},
            t_end=(rec["t_end"] if rec.get("t_end") is not None
                   else math.nan),
            wall_end=(rec["wall_end"]
                      if rec.get("wall_end") is not None
                      else math.nan),
        ))
    elif kind == "instant":
        trace.log.append(InstantRecord(
            name=rec["name"], lane=rec["lane"], t=rec["t"],
            wall_t=rec.get("wall_t", rec["t"]),
            tags=rec.get("tags") or {}))
    elif kind == "flow":
        trace.flows.append(FlowContext(
            flow_id=rec["flow_id"], kind=rec["kind"],
            t_begin=rec["t_begin"],
            src_span_id=rec.get("src_span_id"),
            dst_span_id=rec.get("dst_span_id"),
            tags=rec.get("tags") or {},
            hops=[FlowHop(t=h["t"], kind=h["kind"],
                          lane=h["lane"],
                          span_id=h.get("span_id"),
                          tags=h.get("tags") or {})
                  for h in rec.get("hops", [])]))
    elif kind != "metrics":
        raise ValueError(f"record type {kind!r} is not span, instant, flow "
                         "or metrics")


def load_trace_jsonl(path: str) -> Trace:
    """Reconstruct a :class:`Trace` from a JSON-lines export.

    Full fidelity: spans (with ids and tags), instants, and flows with
    their complete hop chains — everything :func:`repro.obs.blame.blame`
    and ``repro replay --diff`` need. Metrics lines are skipped. A damaged
    line, or a record of another type, raises ``ValueError`` naming
    ``path:lineno``.
    """
    trace = Trace()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                _append_jsonl_record(trace, json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{lineno}: record is missing field {exc}") from exc
            except (AttributeError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a trace record: {exc}") from exc
    return trace


def load_trace(path: str) -> Trace:
    """Load a trace from either export format, sniffing the content.

    A Chrome trace document (``{"traceEvents": [...]}``) reconstructs
    spans from balanced ``B``/``E`` pairs and instants from ``i`` events
    (lane names from ``process_name`` metadata; flows are not
    reconstructed — hop detail is only in the JSONL format); a document
    :func:`validate_chrome_trace` faults raises ``ValueError`` naming its
    first problem. Anything else is parsed as JSON lines via
    :func:`load_trace_jsonl`.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.read(4096).lstrip()
    if '"traceEvents"' not in head:
        # JSONL lines carry a "type" key, never a traceEvents wrapper.
        return load_trace_jsonl(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    events = doc["traceEvents"]
    lane_of_pid: dict[Any, str] = {}
    for event in events:
        if (event.get("ph") == "M" and event.get("name") == "process_name"):
            lane_of_pid[event["pid"]] = event.get("args", {}).get(
                "name", f"pid-{event['pid']}")
    trace = Trace()
    next_id = itertools.count(1)
    stacks: dict[tuple[Any, Any], list[SpanRecord]] = {}
    for event in sorted(events, key=lambda e: e["ts"]):
        ph = event.get("ph")
        pid = event.get("pid")
        lane = lane_of_pid.get(pid, f"pid-{pid}")
        if lane == "metrics":
            continue
        t = event["ts"] / _US
        if ph == "B":
            key = (pid, event.get("tid"))
            stack = stacks.setdefault(key, [])
            span = SpanRecord(
                name=event["name"], lane=lane, span_id=next(next_id),
                parent_id=stack[-1].span_id if stack else None,
                t_start=t, wall_start=t,
                category=event.get("cat"),
                tags=event.get("args") or {})
            trace.log.append(span)
            stack.append(span)
        elif ph == "E":
            stack = stacks.get((pid, event.get("tid")))
            if stack:
                span = stack.pop()
                span.t_end = t
                span.wall_end = t
        elif ph == "i":
            trace.log.append(InstantRecord(
                name=event["name"], lane=lane, t=t, wall_t=t,
                tags=event.get("args") or {}))
    return trace


def lane_summary(trace: Trace, clock: str = "trace") -> str:
    """Per-lane span counts and busy time as an aligned text table."""
    if clock not in ("trace", "wall"):
        raise ValueError(f"clock must be 'trace' or 'wall', got {clock!r}")
    table = TextTable(["lane", "spans", "instants", "busy (s)", "first",
                       "last"], title="trace lanes")
    instants_by_lane: dict[str, int] = {}
    for inst in trace.instants:
        instants_by_lane[inst.lane] = instants_by_lane.get(inst.lane, 0) + 1
    spans_by_lane: dict[str, list[SpanRecord]] = {}
    for span in trace.closed_spans():
        spans_by_lane.setdefault(span.lane, []).append(span)
    for lane in trace.lanes():
        spans = spans_by_lane.get(lane, [])
        times = [_span_times(s, clock) for s in spans]
        busy = sum(e - s for s, e in times)
        table.add_row([
            lane, len(spans), instants_by_lane.get(lane, 0), round(busy, 4),
            round(min((s for s, _ in times), default=0.0), 4),
            round(max((e for _, e in times), default=0.0), 4),
        ])
    return table.render()

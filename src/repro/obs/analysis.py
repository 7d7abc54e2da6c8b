"""Trace analysis: critical-path extraction and breakdown reconciliation.

The critical path answers the paper's central scheduling question: *which
stage bounds the per-timestep makespan* — the stencil sweep on the sim
cores, the RDMA movement, or the in-transit glue? It is extracted over the
recorded span DAG, whose edges are

* **lane order** — a span is preceded by the latest span on the same lane
  that ended before it started, exact for single-actor lanes (a bucket
  cannot start a task before finishing the previous one);
* **explicit ``follows`` tags** — a span carrying ``follows=<span_id>``
  (or a list of ids) names its producers directly;
* **flow edges** — consecutive spans on one
  :class:`~repro.obs.flow.FlowContext` chain (producer span → wire
  transfer(s) → in-transit consumer), recorded at every hand-off.

A trace without flows (loaded from Chrome JSON, or built by hand) has no
recorded hand-offs, so there spans sharing a ``step`` tag are linked by
time order instead (the sim span of step *n* releases step *n*'s movement
and in-transit spans); :attr:`CriticalPath.method` says which applied.

Walking back from the last-finishing span and always choosing the
*latest-ending* predecessor yields the blocking chain; gaps between
consecutive path spans are genuine waits (queueing, NIC contention).

:func:`reconcile_totals` checks traced per-stage totals against an
expected breakdown (e.g. :class:`repro.core.breakdown.TimingBreakdown`
figures) — the guard that keeps the observability layer honest.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter

from repro.obs.tracer import SpanRecord, Trace
from repro.util.tables import TextTable

__all__ = [
    "CriticalPath",
    "critical_path",
    "ReconcileRow",
    "reconcile_totals",
    "reconcile_table",
]


@dataclass
class CriticalPath:
    """The blocking chain of spans ending at the trace's last finish."""

    spans: list[SpanRecord] = field(default_factory=list)
    #: sink finish minus first path span start (the bounded makespan).
    makespan: float = 0.0
    #: Sum of path span durations (trace clock).
    busy_time: float = 0.0
    #: Makespan minus busy time: queueing/contention gaps along the path.
    wait_time: float = 0.0
    #: Path busy time attributed per ``stage`` tag.
    stage_totals: dict[str, float] = field(default_factory=dict)
    #: How hand-offs were linked: ``"causal"`` (recorded flow edges) or
    #: ``"heuristic"`` (``step``-tag time order, flow-less traces only).
    method: str = "heuristic"

    @property
    def bounding_stage(self) -> str | None:
        """The stage holding the largest share of the path's busy time."""
        if not self.stage_totals:
            return None
        return max(self.stage_totals, key=lambda k: self.stage_totals[k])

    def table(self) -> str:
        max_rows = 40  # the tail of the chain: one screenful
        t = TextTable(["lane", "span", "stage", "start (s)", "dur (s)",
                       "wait before (s)"],
                      title="critical path (last-finishing chain)")
        shown = self.spans[-max_rows:]
        prev_end: float | None = (shown[0].t_start if shown else None)
        for span in shown:
            wait = max(0.0, span.t_start - prev_end) if prev_end is not None else 0.0
            t.add_row([span.lane, span.name, span.tags.get("stage", "—"),
                       round(span.t_start, 4), round(span.duration, 4),
                       round(wait, 4)])
            prev_end = span.t_end
        lines = [t.render()]
        if len(self.spans) > max_rows:
            lines.append(f"({len(self.spans) - max_rows} earlier path spans "
                         f"not shown)")
        lines.append(f"makespan {self.makespan:.4f} s = busy "
                     f"{self.busy_time:.4f} s + wait {self.wait_time:.4f} s; "
                     f"bounded by: {self.bounding_stage or 'n/a'}")
        if self.stage_totals:
            share = TextTable(["stage", "path time (s)", "share"],
                              title="path time by stage")
            for stage, total in sorted(self.stage_totals.items(),
                                       key=lambda kv: -kv[1]):
                frac = total / self.busy_time if self.busy_time else 0.0
                share.add_row([stage, round(total, 4), f"{100 * frac:.1f}%"])
            lines.append(share.render())
        return "\n\n".join(lines)


#: Finish order of spans: end time, then begin order.
_BY_FINISH = attrgetter("t_end", "span_id")


def _by_end(spans: list[SpanRecord], key
            ) -> dict[object, tuple[list[SpanRecord], list[float]]]:
    """Group spans by ``key(span)``; each group sorted by finish time and
    paired with its ``t_end`` list (the bisect index of :func:`_predecessor`)."""
    groups: dict[object, list[SpanRecord]] = {}
    for s in spans:
        groups.setdefault(key(s), []).append(s)
    out = {}
    for k, group in groups.items():
        group.sort(key=_BY_FINISH)
        out[k] = (group, [s.t_end for s in group])
    return out


def _predecessor(group: tuple[list[SpanRecord], list[float]],
                 before: float) -> SpanRecord | None:
    """Latest-ending span in a :func:`_by_end` group with t_end <= before."""
    candidates, ends = group
    i = bisect.bisect_right(ends, before)
    return candidates[i - 1] if i else None


def critical_path(trace: Trace) -> CriticalPath:
    """Extract the blocking chain ending at the span with the greatest
    finish time.

    The DAG is built over stage-tagged spans — the disjoint per-stage
    activities — so parents that merely wrap children do not double
    count.

    The trace decides how hand-offs are linked: recorded flow edges when
    it has any (``method == "causal"``), the ``step`` tag otherwise
    (``method == "heuristic"``).
    """
    method = "causal" if trace.flows else "heuristic"
    spans = [s for s in trace.closed_spans() if "stage" in s.tags]
    if not spans:
        return CriticalPath(method=method)

    by_id = {s.span_id: s for s in spans}
    by_lane = _by_end(spans, attrgetter("lane"))
    producers: dict[int, list[SpanRecord]] = {}
    for flow in trace.flows:
        chain = flow.span_ids()
        for a, b in zip(chain, chain[1:]):
            if a in by_id and b in by_id:
                producers.setdefault(b, []).append(by_id[a])
    by_step = ({} if trace.flows else
               _by_end([s for s in spans if "step" in s.tags],
                       lambda s: s.tags["step"]))

    current = max(spans, key=_BY_FINISH)
    path = [current]
    visited = {current.span_id}
    while True:
        cutoff = current.t_start + 1e-9
        candidates = [_predecessor(by_lane[current.lane], cutoff)]
        if by_step and "step" in current.tags:
            candidates.append(
                _predecessor(by_step[current.tags["step"]], cutoff))
        named = list(producers.get(current.span_id, ()))
        follows = current.tags.get("follows")
        if follows is not None:
            ids = follows if isinstance(follows, (list, tuple)) else (follows,)
            named += [by_id[i] for i in ids if i in by_id]
        # Overlapping producers (streaming prefetch) are not blocking.
        candidates += [p for p in named if p.t_end <= cutoff]
        candidates = [c for c in candidates
                      if c is not None and c.span_id not in visited]
        if not candidates:
            break
        current = max(candidates, key=_BY_FINISH)
        visited.add(current.span_id)
        path.append(current)
    path.reverse()

    busy = sum(s.duration for s in path)
    makespan = path[-1].t_end - path[0].t_start
    stage_totals: dict[str, float] = {}
    for s in path:
        stage = s.tags.get("stage")
        if stage is not None:
            stage_totals[stage] = stage_totals.get(stage, 0.0) + s.duration
    return CriticalPath(spans=path, makespan=makespan, busy_time=busy,
                        wait_time=max(0.0, makespan - busy),
                        stage_totals=stage_totals, method=method)


@dataclass
class ReconcileRow:
    """One stage's expected-vs-traced comparison."""

    stage: str
    expected: float
    observed: float

    @property
    def rel_err(self) -> float:
        if self.expected == 0.0:
            return abs(self.observed)
        return abs(self.observed - self.expected) / abs(self.expected)

    def ok(self, tolerance: float) -> bool:
        return self.rel_err <= tolerance


def reconcile_totals(observed: dict[str, float], expected: dict[str, float]
                     ) -> list[ReconcileRow]:
    """Compare traced per-stage totals against model-expected totals. An
    expected stage ``"a+b"`` that ``observed`` lacks is compared with the
    sum of the observed ``a`` and ``b``."""
    return [ReconcileRow(stage=stage, expected=exp,
                         observed=observed.get(stage, sum(
                             observed.get(part, 0.0)
                             for part in stage.split("+"))))
            for stage, exp in sorted(expected.items())]


def reconcile_table(rows: list[ReconcileRow]) -> str:
    tolerance = 0.01
    t = TextTable(["stage", "model (s)", "traced (s)", "rel err", "ok"],
                  title=f"trace vs core.breakdown (tolerance "
                        f"{100 * tolerance:.1f}%)")
    for row in rows:
        t.add_row([row.stage, round(row.expected, 4),
                   round(row.observed, 4), f"{100 * row.rel_err:.3f}%",
                   "yes" if row.ok(tolerance) else "NO"])
    return t.render()

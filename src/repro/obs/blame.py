"""Latency blame attribution and run-vs-run trace diffing.

Answers the paper's attribution questions *exactly*: every second
between a window's start and end lands in exactly one of the five
:data:`~repro.obs.flow.BLAME_BUCKETS` —

* **compute** — simulation / in-situ / in-transit span residencies and
  service hand-offs;
* **transport** — wire-transfer residencies, SMSG notifies, vmpi
  collective rounds;
* **queue_wait** — scheduler FCFS queueing and NIC channel grants;
* **retry_backoff** — failed attempts plus their exponential backoff
  (pull faults, lease expiries);
* **scheduler_idle** — time no recorded span or edge explains.

The decomposition walks a causal chain (the whole-run critical
path, or one timestep's flow chain) with a **cursor**: each gap before a
span is partitioned by the flow hops that arrived in it, each span
residency is charged to its stage's bucket, and the cursor only moves
forward — so the bucket totals telescope to the window length exactly
(overlapping streaming-prefetch spans are clamped, never double
counted).

:func:`diff_traces` aligns two runs (flows matched by ``task_id``, then
by ``(analysis, step)`` order) and reports per-stage, per-bucket,
per-edge-kind, and per-step deltas — e.g. fault-injected vs fault-free,
or two scheduler configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.analysis import critical_path
from repro.obs.flow import (
    BLAME_BUCKETS,
    BLAME_SCHEDULER_IDLE,
    FlowContext,
    blame_bucket_for_edge,
    blame_bucket_for_stage,
)
from repro.obs.tracer import SpanRecord, Trace
from repro.util.tables import TextTable

__all__ = [
    "BlameBreakdown",
    "StepBlame",
    "BlameReport",
    "KernelUsage",
    "blame",
    "flow_edge_totals",
    "top_kernels",
    "kernel_table",
    "TraceDiff",
    "diff_traces",
]


@dataclass
class BlameBreakdown:
    """One window's exact decomposition into the five blame buckets."""

    t_start: float
    t_end: float
    buckets: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in BLAME_BUCKETS:
            self.buckets.setdefault(name, 0.0)

    @property
    def window(self) -> float:
        return self.t_end - self.t_start

    @property
    def total(self) -> float:
        return sum(self.buckets.values())

    def check(self, tol: float = 1e-6) -> bool:
        """The exact-sum invariant: buckets sum to the window length."""
        return abs(self.total - self.window) <= tol

    def share(self, bucket: str) -> float:
        return self.buckets[bucket] / self.window if self.window else 0.0


def _arrival_hops(trace: Trace) -> dict[int, list]:
    """Span id -> the flow hops that led into that span (checkpoint hops
    since the previous span on the chain, plus the entering hop itself)."""
    arrival: dict[int, list] = {}
    for flow in trace.flows:
        seg: list = []
        for hop in flow.hops:
            seg.append(hop)
            if hop.span_id is not None:
                arrival.setdefault(hop.span_id, []).extend(seg)
                seg = []
    return arrival


def _decompose(chain: list[SpanRecord], arrival: dict[int, list],
               t_start: float | None = None,
               t_end: float | None = None) -> BlameBreakdown:
    """Cursor-discipline decomposition of ``[t_start, t_end]`` along a
    time-ordered span chain. Gaps are partitioned by the hops that
    arrived at the next span; residencies charge the span's stage;
    anything unexplained is scheduler idle."""
    if not chain:
        return BlameBreakdown(t_start=0.0, t_end=0.0)
    lo = chain[0].t_start if t_start is None else t_start
    hi = chain[-1].t_end if t_end is None else t_end
    buckets = dict.fromkeys(BLAME_BUCKETS, 0.0)
    cursor = lo
    for span in chain:
        # Partition the gap [cursor, span.t_start] by arriving hop times.
        for hop in arrival.get(span.span_id, ()):
            t = min(hop.t, span.t_start)
            seg = t - cursor
            if seg > 0:
                buckets[blame_bucket_for_edge(hop.kind)] += seg
                cursor = t
        leftover = span.t_start - cursor
        if leftover > 0:
            buckets[BLAME_SCHEDULER_IDLE] += leftover
            cursor = span.t_start
        # Residency beyond the cursor (overlaps clamp to zero).
        top = min(span.t_end, hi)
        resid = top - max(cursor, span.t_start)
        if resid > 0:
            buckets[blame_bucket_for_stage(span.stage)] += resid
            cursor = max(cursor, top)
    if hi > cursor:
        buckets[BLAME_SCHEDULER_IDLE] += hi - cursor
    return BlameBreakdown(t_start=lo, t_end=hi, buckets=buckets)


def flow_edge_totals(trace: Trace, flow: FlowContext) -> dict[str, float]:
    """Exact per-edge-kind time along one flow (span residencies jump
    the cursor, so wire and compute time never leak into edge buckets)."""
    smap = trace.span_map()
    out: dict[str, float] = {}
    cursor = flow.t_begin
    for hop in flow.hops:
        seg = hop.t - cursor
        if seg > 0:
            out[hop.kind] = out.get(hop.kind, 0.0) + seg
            cursor = hop.t
        if hop.span_id is not None:
            span = smap.get(hop.span_id)
            if span is not None and span.closed:
                cursor = max(cursor, span.t_end)
    return out


@dataclass
class StepBlame:
    """One timestep's end-to-end latency, decomposed.

    The window runs from the step's simulation span start (the flow's
    begin when no sim span exists) to the finish of the step's
    last-completing flow — the step's true end-to-end latency.
    """

    step: Any
    breakdown: BlameBreakdown
    flow_id: int
    n_flows: int

    @property
    def latency(self) -> float:
        return self.breakdown.window


@dataclass
class BlameReport:
    """The full attribution picture of one trace."""

    #: Whole-run decomposition along the causal critical path.
    overall: BlameBreakdown
    #: Per-timestep decompositions (steps with at least one closed flow).
    steps: list[StepBlame] = field(default_factory=list)
    #: Exact per-edge-kind totals summed over every closed flow.
    edge_totals: dict[str, float] = field(default_factory=dict)
    #: ``"causal"`` when flow edges drove the path, else ``"heuristic"``.
    method: str = "causal"

    @property
    def makespan(self) -> float:
        return self.overall.window

    def table(self) -> str:
        t = TextTable(["bucket", "time (s)", "share"],
                      title=f"blame attribution ({self.method} path, "
                            f"makespan {self.makespan:.4f} s)")
        for name in BLAME_BUCKETS:
            t.add_row([name, round(self.overall.buckets[name], 4),
                       f"{100 * self.overall.share(name):.1f}%"])
        lines = [t.render()]
        if self.steps:
            st = TextTable(["step", "latency (s)"]
                           + [b for b in BLAME_BUCKETS],
                           title="per-timestep end-to-end latency")
            for s in self.steps:
                st.add_row([s.step, round(s.latency, 4)]
                           + [round(s.breakdown.buckets[b], 4)
                              for b in BLAME_BUCKETS])
            lines.append(st.render())
        if self.edge_totals:
            et = TextTable(["edge kind", "time (s)"],
                           title="edge-kind totals (all flows)")
            for kind, total in sorted(self.edge_totals.items(),
                                      key=lambda kv: -kv[1]):
                et.add_row([kind, round(total, 6)])
            lines.append(et.render())
        return "\n\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "makespan": self.makespan,
            "overall": dict(self.overall.buckets),
            "edge_totals": dict(self.edge_totals),
            "steps": [{"step": s.step, "latency": s.latency,
                       "n_flows": s.n_flows,
                       "buckets": dict(s.breakdown.buckets)}
                      for s in self.steps],
        }


def _step_chains(trace: Trace, smap: dict[int, SpanRecord]
                 ) -> list[tuple[Any, FlowContext, int]]:
    """(step, last-finishing closed flow, flow count) per step value."""
    by_step: dict[Any, list[FlowContext]] = {}
    for flow in trace.flows:
        if not flow.closed or "step" not in flow.tags:
            continue
        by_step.setdefault(flow.tags["step"], []).append(flow)
    out = []
    for step, flows in by_step.items():
        last = max(flows, key=lambda f: smap[f.dst_span_id].t_end)
        out.append((step, last, len(flows)))
    out.sort(key=lambda item: (str(type(item[0])), item[0]))
    return out


def blame(trace: Trace) -> BlameReport:
    """Decompose the trace's makespan (and each step's latency) into the
    five blame buckets, exactly."""
    path = critical_path(trace)
    arrival = _arrival_hops(trace)
    overall = _decompose(path.spans, arrival)
    smap = trace.span_map()

    steps: list[StepBlame] = []
    if trace.flows:
        for step, flow, n_flows in _step_chains(trace, smap):
            chain = [smap[sid] for sid in flow.span_ids() if sid in smap]
            chain = [s for s in chain if s.closed]
            sim_spans = trace.spans_with(stage="simulation", step=step)
            if sim_spans:
                chain = [sim_spans[0]] + [s for s in chain
                                          if s is not sim_spans[0]]
            chain.sort(key=lambda s: (s.t_start, s.t_end))
            if not chain:
                continue
            steps.append(StepBlame(
                step=step, flow_id=flow.flow_id, n_flows=n_flows,
                breakdown=_decompose(chain, arrival)))

    edge_totals: dict[str, float] = {}
    for flow in trace.flows:
        if not flow.closed:
            continue
        for kind, total in flow_edge_totals(trace, flow).items():
            edge_totals[kind] = edge_totals.get(kind, 0.0) + total
    return BlameReport(overall=overall, steps=steps,
                       edge_totals=edge_totals, method=path.method)


# -- kernel attribution --------------------------------------------------------


@dataclass
class KernelUsage:
    """One kernel's aggregate wall time across a trace.

    Kernel spans are the ``kernel.<name>`` spans the backend seam opens
    around every dispatched hot-path call (see :mod:`repro.backend`);
    they carry ``kernel=`` and ``backend=`` tags and no ``stage`` tag, so
    they never perturb stage totals or critical paths — this is the
    read side of that instrumentation.
    """

    kernel: str
    backend: str
    calls: int
    wall_s: float
    #: Fraction of the total kernel wall time across the trace.
    share: float

    def to_dict(self) -> dict[str, Any]:
        return {"kernel": self.kernel, "backend": self.backend,
                "calls": self.calls, "wall_s": self.wall_s,
                "share": self.share}


def top_kernels(trace: Trace, n: int | None = None) -> list[KernelUsage]:
    """Rank kernel-tagged spans by total wall time, descending.

    This is the blame view the kernel work is guided by: which hot
    paths actually dominate, and under which body (``backend=numpy``, the
    vectorized code, or ``reference``, the oracle).
    """
    totals: dict[tuple[str, str], tuple[int, float]] = {}
    for span in trace.closed_spans():
        kname = span.tags.get("kernel")
        if kname is None:
            continue
        key = (str(kname), str(span.tags.get("backend", "?")))
        calls, wall = totals.get(key, (0, 0.0))
        totals[key] = (calls + 1, wall + span.wall_duration)
    grand = sum(wall for _, wall in totals.values())
    usages = [KernelUsage(kernel=k, backend=b, calls=calls, wall_s=wall,
                          share=(wall / grand) if grand > 0 else 0.0)
              for (k, b), (calls, wall) in totals.items()]
    usages.sort(key=lambda u: (-u.wall_s, u.kernel, u.backend))
    return usages[:n] if n is not None else usages


def kernel_table(usages: list[KernelUsage]) -> str:
    """Render a kernel ranking as a text table."""
    if not usages:
        return ("no kernel spans recorded (kernel dispatch is traced "
                "only while a tracer is enabled)")
    t = TextTable(["kernel", "backend", "calls", "wall (s)", "share"],
                  title="kernel wall-time ranking")
    for u in usages:
        t.add_row([u.kernel, u.backend, u.calls, round(u.wall_s, 6),
                   f"{100 * u.share:.1f}%"])
    return t.render()


# -- trace diffing -------------------------------------------------------------


@dataclass
class FlowDelta:
    """One aligned flow's latency change between two runs."""

    key: str
    latency_a: float
    latency_b: float

    @property
    def delta(self) -> float:
        return self.latency_b - self.latency_a


@dataclass
class TraceDiff:
    """Run B relative to run A: positive deltas mean B is slower."""

    a_label: str
    b_label: str
    makespan_a: float
    makespan_b: float
    #: stage -> (A total, B total), union of both runs' stages.
    stage_totals: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: blame bucket -> (A, B) from the whole-run decompositions.
    blame_buckets: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: edge kind -> (A, B) exact flow-edge totals.
    edge_totals: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: step -> (A latency, B latency) for steps present in both runs.
    step_latencies: dict[Any, tuple[float, float]] = field(default_factory=dict)
    #: Aligned flows, sorted by |delta| descending.
    flows: list[FlowDelta] = field(default_factory=list)
    #: Flows present in only one run (alignment misses).
    unmatched_a: int = 0
    unmatched_b: int = 0

    @property
    def makespan_delta(self) -> float:
        return self.makespan_b - self.makespan_a

    def blame_delta(self, bucket: str) -> float:
        a, b = self.blame_buckets.get(bucket, (0.0, 0.0))
        return b - a

    def blame_delta_share(self, bucket: str) -> float:
        """This bucket's share of the makespan delta (0 when equal)."""
        if self.makespan_delta == 0:
            return 0.0
        return self.blame_delta(bucket) / self.makespan_delta

    def dominant_bucket(self) -> str | None:
        """The blame bucket explaining the largest slice of the delta."""
        if not self.blame_buckets:
            return None
        return max(self.blame_buckets,
                   key=lambda k: abs(self.blame_delta(k)))

    def table(self) -> str:
        max_flows = 10
        head = (f"trace diff: {self.b_label} vs {self.a_label} — makespan "
                f"{self.makespan_b:.4f} s vs {self.makespan_a:.4f} s "
                f"({self.makespan_delta:+.4f} s)")
        lines = [head]
        bt = TextTable(["blame bucket", f"{self.a_label} (s)",
                        f"{self.b_label} (s)", "delta (s)",
                        "share of Δmakespan"],
                       title="blame bucket deltas")
        for name in BLAME_BUCKETS:
            a, b = self.blame_buckets.get(name, (0.0, 0.0))
            bt.add_row([name, round(a, 4), round(b, 4), round(b - a, 4),
                        f"{100 * self.blame_delta_share(name):.1f}%"])
        lines.append(bt.render())
        if self.stage_totals:
            st = TextTable(["stage", f"{self.a_label} (s)",
                            f"{self.b_label} (s)", "delta (s)"],
                           title="per-stage totals")
            for stage in sorted(self.stage_totals):
                a, b = self.stage_totals[stage]
                st.add_row([stage, round(a, 4), round(b, 4),
                            round(b - a, 4)])
            lines.append(st.render())
        if self.edge_totals:
            et = TextTable(["edge kind", f"{self.a_label} (s)",
                            f"{self.b_label} (s)", "delta (s)"],
                           title="flow-edge totals")
            for kind in sorted(self.edge_totals):
                a, b = self.edge_totals[kind]
                et.add_row([kind, round(a, 6), round(b, 6),
                            round(b - a, 6)])
            lines.append(et.render())
        if self.flows:
            ft = TextTable(["flow", f"{self.a_label} (s)",
                            f"{self.b_label} (s)", "delta (s)"],
                           title=f"largest per-flow latency deltas "
                                 f"(top {min(max_flows, len(self.flows))})")
            for fd in self.flows[:max_flows]:
                ft.add_row([fd.key, round(fd.latency_a, 4),
                            round(fd.latency_b, 4), round(fd.delta, 4)])
            lines.append(ft.render())
        if self.unmatched_a or self.unmatched_b:
            lines.append(f"unmatched flows: {self.unmatched_a} only in "
                         f"{self.a_label}, {self.unmatched_b} only in "
                         f"{self.b_label}")
        return "\n\n".join(lines)


def _trace_makespan(trace: Trace) -> float:
    return max((s.t_end for s in trace.closed_spans()), default=0.0)


def _flow_latencies(trace: Trace) -> dict[str, float]:
    """Alignment key -> end-to-end latency for every closed flow.

    Keys prefer the stable ``task_id`` tag; flows without one fall back
    to ``analysis/step`` with a disambiguating arrival index, which
    aligns deterministic runs of the same configuration.
    """
    smap = trace.span_map()
    out: dict[str, float] = {}
    fallback_counts: dict[str, int] = {}
    for flow in trace.flows:
        if not flow.closed:
            continue
        dst = smap.get(flow.dst_span_id)
        if dst is None or not dst.closed:
            continue
        key = flow.tags.get("task_id")
        if key is None:
            base = (f"{flow.tags.get('analysis', flow.kind)}"
                    f"/t{flow.tags.get('step', '?')}")
            n = fallback_counts.get(base, 0)
            fallback_counts[base] = n + 1
            key = f"{base}/#{n}"
        out[str(key)] = dst.t_end - flow.t_begin
    return out


def diff_traces(a: Trace, b: Trace, a_label: str = "A",
                b_label: str = "B") -> TraceDiff:
    """Align two runs and report what changed, and why.

    B is the run under scrutiny (fault-injected, new scheduler config);
    A is the reference. Positive deltas mean B spent more.
    """
    report_a = blame(a)
    report_b = blame(b)

    stages_a = a.stage_totals()
    stages_b = b.stage_totals()
    stage_totals = {stage: (stages_a.get(stage, 0.0),
                            stages_b.get(stage, 0.0))
                    for stage in sorted(set(stages_a) | set(stages_b))}
    blame_buckets = {name: (report_a.overall.buckets[name],
                            report_b.overall.buckets[name])
                    for name in BLAME_BUCKETS}
    edge_totals = {kind: (report_a.edge_totals.get(kind, 0.0),
                          report_b.edge_totals.get(kind, 0.0))
                   for kind in sorted(set(report_a.edge_totals)
                                      | set(report_b.edge_totals))}
    steps_a = {s.step: s.latency for s in report_a.steps}
    steps_b = {s.step: s.latency for s in report_b.steps}
    step_latencies = {step: (steps_a[step], steps_b[step])
                      for step in sorted(set(steps_a) & set(steps_b),
                                         key=str)}

    lat_a = _flow_latencies(a)
    lat_b = _flow_latencies(b)
    matched = sorted(set(lat_a) & set(lat_b))
    flows = sorted((FlowDelta(key=k, latency_a=lat_a[k], latency_b=lat_b[k])
                    for k in matched),
                   key=lambda fd: -abs(fd.delta))
    return TraceDiff(
        a_label=a_label, b_label=b_label,
        makespan_a=_trace_makespan(a), makespan_b=_trace_makespan(b),
        stage_totals=stage_totals, blame_buckets=blame_buckets,
        edge_totals=edge_totals, step_latencies=step_latencies,
        flows=flows,
        unmatched_a=len(set(lat_a) - set(lat_b)),
        unmatched_b=len(set(lat_b) - set(lat_a)),
    )

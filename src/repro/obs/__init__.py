"""repro.obs — unified tracing, metrics, and critical-path observability.

The observability subsystem for the hybrid pipeline. Instrumentation
sites append one record to the tracer's event log (:mod:`repro.obs.events`)
and every view below is a fold over it, run on read, ``poll()`` or
``finalize()``:

* :class:`Tracer` — span/instant/counter recording against both the DES
  simulated clock and the wall clock, with per-actor lanes and nesting;
  disabled by default via the :data:`NULL_TRACER` singleton (near-zero
  overhead at instrument sites).
* :class:`MetricsRegistry` — counters, gauges, histograms (bytes moved,
  SMSG/BTE picks, queue depths, bucket occupancy, retries).
* Exporters — Chrome trace-event JSON (Perfetto-loadable), JSON-lines
  event logs, and text summaries.
* Analysis — :func:`critical_path` extraction over the span DAG and
  :func:`reconcile_totals` against :mod:`repro.core.breakdown` figures.
* Causal flows — :class:`FlowContext` hand-off edges recorded through
  every pipeline boundary (submit → scheduler → bucket → pull →
  in-transit), which make :func:`critical_path` exact and drive the
  :func:`blame` attribution (five buckets summing exactly to the
  makespan), and :func:`diff_traces` run-vs-run comparison
  (``python -m repro blame``, ``python -m repro trace --diff``).
* Cross-run performance — :class:`RunStore` append-only run records,
  :func:`compare_record` regression gating against a rolling
  :class:`Baseline`, :class:`ProbeSampler` live DES-clock probes with SLO
  rules, and :func:`write_dashboard` self-contained HTML reports
  (``python -m repro perf record|compare|report``).
* Live plane — :class:`TelemetryBus` streaming spans/probes/alerts/job
  events in DES time with per-tenant attribution, :class:`BurnRateMonitor`
  rolling SLO burn-rate alerting, and the ``repro top`` live service
  view (``python -m repro top``).
* Capacity plane — :class:`CapacityLedger` byte-accurate staging-memory
  and NIC-bandwidth ledgers with per-tenant/shard/source attribution,
  leak detection, and headroom reconciliation against the analytic
  ``staging_memory_needed`` bound (``python -m repro capacity``).

Typical use::

    from repro.obs import tracing, write_chrome_trace, critical_path

    with tracing() as tracer:
        fw = HybridFramework(case, decomp)   # construct *inside* the context
        fw.run(10)
    write_chrome_trace("trace.json", tracer.trace, tracer.metrics)
    print(critical_path(tracer.trace).table())

Or drive the packaged campaign: ``python -m repro trace``.
"""

from repro.obs.analysis import (
    CriticalPath,
    ReconcileRow,
    critical_path,
    reconcile_table,
    reconcile_totals,
)
from repro.obs.blame import (
    BlameBreakdown,
    BlameReport,
    KernelUsage,
    StepBlame,
    TraceDiff,
    blame,
    diff_traces,
    flow_edge_totals,
    kernel_table,
    top_kernels,
)
from repro.obs.capacity import (
    CapacityLedger,
    CapacityReport,
    capacity_objectives,
    run_capacity_scenario,
)
from repro.obs.events import LedgerEntry, SampleRow, TransferEntry
from repro.obs.export import (
    lane_summary,
    load_trace,
    load_trace_jsonl,
    to_chrome_trace,
    to_jsonl_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flow import (
    BLAME_BUCKETS,
    EDGE_KINDS,
    FlowContext,
    FlowHop,
)
from repro.obs.live import (
    Alert,
    BurnRateMonitor,
    BusEvent,
    BusSubscriber,
    SloObjective,
    TelemetryBus,
    default_objectives,
    event_to_json,
    render_top,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.perf import (
    DEFAULT_POLICIES,
    Baseline,
    MetricPolicy,
    MetricVerdict,
    RegressionReport,
    RunRecord,
    RunStore,
    collect_run_record,
    compare_record,
    machine_fingerprint,
)
from repro.obs.probes import (
    ProbeSampler,
    SloAlert,
    SloRule,
    default_slos,
    insitu_share_slo,
)
from repro.obs.report import (
    render_dashboard,
    render_trace_diff,
    write_dashboard,
    write_trace_diff,
)
from repro.obs.tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Trace,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "CriticalPath",
    "ReconcileRow",
    "critical_path",
    "reconcile_table",
    "reconcile_totals",
    "BlameBreakdown",
    "BlameReport",
    "KernelUsage",
    "StepBlame",
    "TraceDiff",
    "blame",
    "diff_traces",
    "flow_edge_totals",
    "kernel_table",
    "top_kernels",
    "CapacityLedger",
    "CapacityReport",
    "LedgerEntry",
    "SampleRow",
    "TransferEntry",
    "capacity_objectives",
    "run_capacity_scenario",
    "BLAME_BUCKETS",
    "EDGE_KINDS",
    "FlowContext",
    "FlowHop",
    "load_trace",
    "load_trace_jsonl",
    "lane_summary",
    "to_chrome_trace",
    "to_jsonl_lines",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Alert",
    "BurnRateMonitor",
    "BusEvent",
    "BusSubscriber",
    "SloObjective",
    "TelemetryBus",
    "default_objectives",
    "event_to_json",
    "render_top",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_POLICIES",
    "Baseline",
    "MetricPolicy",
    "MetricVerdict",
    "RegressionReport",
    "RunRecord",
    "RunStore",
    "collect_run_record",
    "compare_record",
    "machine_fingerprint",
    "ProbeSampler",
    "SloAlert",
    "SloRule",
    "default_slos",
    "insitu_share_slo",
    "render_dashboard",
    "render_trace_diff",
    "write_dashboard",
    "write_trace_diff",
    "NULL_TRACER",
    "InstantRecord",
    "NullTracer",
    "SpanRecord",
    "Trace",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "set_tracer",
    "tracing",
]

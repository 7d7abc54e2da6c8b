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
  (``python -m repro replay --blame``, ``... replay --diff OTHER``).
* Cross-run performance — :class:`RunStore` append-only run records,
  :func:`compare_record` regression gating against a rolling
  :class:`Baseline`, :class:`ProbeSampler` live DES-clock probes with
  threshold SLOs, and :func:`write_dashboard` self-contained HTML reports
  (``python -m repro perf record|compare|report``).
* Live plane — :class:`TelemetryBus` streaming spans/probes/alerts/job
  events in DES time with per-tenant attribution, :class:`BurnRateMonitor`
  rolling SLO burn-rate alerting (the one SLO engine: a probe
  sampler's threshold is a zero-window :class:`SloObjective`), and the
  live service view (``python -m repro serve --follow``).
* Capacity plane — :class:`CapacityLedger` byte-accurate staging-memory
  and NIC-bandwidth ledgers with per-tenant/shard/source attribution,
  leak detection, and headroom reconciliation against the analytic
  ``staging_memory_needed`` bound (``python -m repro check capacity``).

Typical use::

    from repro.obs import tracing, write_chrome_trace, critical_path

    with tracing() as tracer:
        fw = HybridFramework(case, decomp)   # construct *inside* the context
        fw.run(10)
    write_chrome_trace("trace.json", tracer.trace, tracer.metrics)
    print(critical_path(tracer.trace).table())

Or drive the packaged campaign: ``python -m repro replay --trace``.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "CriticalPath": "analysis",
    "ReconcileRow": "analysis",
    "critical_path": "analysis",
    "reconcile_table": "analysis",
    "reconcile_totals": "analysis",
    "BlameBreakdown": "blame",
    "BlameReport": "blame",
    "KernelUsage": "blame",
    "StepBlame": "blame",
    "TraceDiff": "blame",
    "blame": "blame",
    "diff_traces": "blame",
    "flow_edge_totals": "blame",
    "kernel_table": "blame",
    "top_kernels": "blame",
    "CapacityLedger": "capacity",
    "CapacityReport": "capacity",
    "LedgerEntry": "events",
    "SampleRow": "events",
    "TransferEntry": "events",
    "capacity_objectives": "capacity",
    "run_capacity_scenario": "capacity",
    "BLAME_BUCKETS": "flow",
    "EDGE_KINDS": "flow",
    "FlowContext": "flow",
    "FlowHop": "flow",
    "load_trace": "export",
    "load_trace_jsonl": "export",
    "lane_summary": "export",
    "to_chrome_trace": "export",
    "to_jsonl_lines": "export",
    "validate_chrome_trace": "export",
    "write_chrome_trace": "export",
    "write_jsonl": "export",
    "Alert": "live",
    "BurnRateMonitor": "live",
    "BusEvent": "live",
    "BusSubscriber": "live",
    "SloObjective": "live",
    "TelemetryBus": "live",
    "default_objectives": "live",
    "event_to_json": "live",
    "render_top": "live",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "DEFAULT_POLICIES": "perf",
    "Baseline": "perf",
    "MetricPolicy": "perf",
    "MetricVerdict": "perf",
    "RegressionReport": "perf",
    "RunRecord": "perf",
    "RunStore": "perf",
    "collect_run_record": "perf",
    "compare_record": "perf",
    "machine_fingerprint": "perf",
    "ProbeSampler": "probes",
    "default_slos": "probes",
    "insitu_share": "probes",
    "render_dashboard": "report",
    "render_trace_diff": "report",
    "write_dashboard": "report",
    "write_trace_diff": "report",
    "NULL_TRACER": "tracer",
    "InstantRecord": "tracer",
    "NullTracer": "tracer",
    "SpanRecord": "tracer",
    "Trace": "tracer",
    "Tracer": "tracer",
    "get_tracer": "tracer",
    "set_tracer": "tracer",
    "tracing": "tracer",
})

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``    — print the modeled Table I and Table II reproductions and
  the post-processing vs concurrent trade-off table;
* ``simulate``  — run the functional hybrid pipeline on a small flame and
  print per-step analysis results;
* ``track``     — run the Fig.-1 feature-tracking experiment;
* ``render``    — render the flame in both visualization modes to PPM;
* ``replay``    — replay the full-scale staging schedule once (the
  laptop-scale pipeline with ``--functional``), report whether the
  in-transit queue keeps pace, and attach observers to that one run:
  ``--trace`` (Chrome/Perfetto trace with causal flow arrows, critical
  path, model reconciliation), ``--jsonl`` (event log), ``--diff OTHER``
  (per-bucket/per-stage/per-flow deltas against an exported trace, text
  + HTML) and ``--blame`` (makespan and per-step latency split into
  compute / transport / queue-wait / retry-and-backoff / scheduler-idle
  buckets that sum exactly to the window); ``--from FILE`` blames or
  diffs an exported trace without replaying;
* ``check``     — hold the model to the declared expectations of
  :mod:`repro.checks` (the paper's rows, the seeded fault, control and
  capacity scenarios), selected by group, section or id prefix;
* ``perf``      — cross-run performance: ``record`` appends the canonical
  run record to a store, ``compare`` gates a fresh run against the
  baseline store's newest record (nonzero exit on regression), ``report``
  renders the self-contained HTML dashboard;
* ``serve``     — drain a multi-tenant JSONL campaign batch through the
  service layer (fair-share queue, per-tenant quotas, sharded staging,
  memoized schedule cache) and emit the per-tenant report; ``--follow``
  (refreshing view), ``--jsonl`` (event lines for collectors) or
  ``--out`` (event stream to a file) attach the live telemetry plane and
  its per-tenant burn-rate alerts;
* ``submit``    — append one validated job spec to a JSONL batch file;
* ``jobs``      — list job records from the service state directory.

File-writing commands put their artifacts under ``--out-dir``
(default ``repro_out/``): an explicit *relative* output path is placed
under ``--out-dir`` too, while an absolute path is used as given.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence
from functools import partial
from pathlib import Path


def _anchor(dir_path: str | Path) -> Path:
    """Resolve a user-supplied directory against the invocation CWD once.

    Every command anchors ``--out-dir``/``--state-dir`` through here, so
    a relative directory means the same place no matter which helper
    later joins paths onto it.
    """
    path = Path(dir_path).expanduser()
    return path if path.is_absolute() else Path.cwd() / path


def _resolve_out(explicit: str | None, out_dir: str, default_name: str
                 ) -> Path:
    """Resolve an output path against ``--out-dir``.

    ``None`` -> ``<out-dir>/<default_name>``; a relative path lands under
    ``--out-dir`` too; an absolute path is respected as given.
    """
    base = _anchor(out_dir)
    if explicit is None:
        path = base / default_name
    else:
        path = Path(explicit).expanduser()
        if not path.is_absolute():
            path = base / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.core import (
        AnalyticsVariant,
        ExperimentConfig,
        ScaledExperiment,
        TradeoffModel,
    )
    from repro.util import TextTable, fmt_bytes, fmt_seconds

    configs = [ExperimentConfig.paper_4896(), ExperimentConfig.paper_9440()]
    breakdowns = {c.name: ScaledExperiment(c).breakdown() for c in configs}
    t1 = TextTable(["", *breakdowns], title="Table I (modeled)")
    t1.add_row(["Simulation time (sec.)",
                *(round(b.simulation_time, 2) for b in breakdowns.values())])
    t1.add_row(["I/O read time (sec.)",
                *(round(b.io_read_time, 2) for b in breakdowns.values())])
    t1.add_row(["I/O write time (sec.)",
                *(round(b.io_write_time, 2) for b in breakdowns.values())])
    t1.add_row(["Data size (GB)",
                *(round(b.data_gb, 1) for b in breakdowns.values())])
    print(t1)

    b = breakdowns[configs[0].name]
    t2 = TextTable(["analysis", "in-situ (s)", "movement (s)", "movement (MB)",
                    "in-transit (s)"],
                   title="\nTable II at 4896 cores (modeled)")
    for v in AnalyticsVariant:
        t2.add_row(b.analytics[v.value].table_row())
    print(t2)

    # A checkpoint every 400 steps of a 2,000-step run, against analysing
    # concurrently (hybrid or fully in-situ) at 4896 cores.
    model = TradeoffModel(ScaledExperiment(configs[0]))
    outcomes = {
        "post @400": model.postprocessing(400, 2000),
        "hybrid @1": model.concurrent_hybrid(1),
        "hybrid @10": model.concurrent_hybrid(10),
        "in-situ @1": model.fully_insitu(1),
    }
    t3 = TextTable(["strategy", "stride", "sim slowdown", "time to insight",
                    "storage/analysed step"],
                   title="\nAnalysis delivery trade-off at 4896 cores "
                         "(modeled)")
    for name, o in outcomes.items():
        t3.add_row([name, o.temporal_stride, f"{o.slowdown_percent:.2f}%",
                    fmt_seconds(o.time_to_insight), fmt_bytes(o.storage_bytes)])
    print(t3)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core import HybridFramework
    from repro.sim import LiftedFlameCase, StructuredGrid3D
    from repro.util import TextTable, fmt_bytes
    from repro.vmpi import BlockDecomposition3D

    shape = tuple(args.grid)
    try:
        case = LiftedFlameCase(StructuredGrid3D(shape), seed=args.seed)
        decomp = BlockDecomposition3D(shape, tuple(args.ranks))
        fw = HybridFramework(case, decomp, n_buckets=args.buckets,
                             streaming_topology=args.streaming)
        result = fw.run(args.steps)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    table = TextTable(["step", "mean T", "max T", "merge-tree maxima"])
    for step in result.analysed_steps:
        if step not in result.statistics or step not in result.merge_trees:
            continue  # a failed task; counted on the tasks line
        stats = result.statistics[step]["T"]
        tree = result.merge_trees[step].reduced()
        table.add_row([step, round(stats.mean, 4), round(stats.maximum, 3),
                       len(tree.leaves())])
    print(table)
    print(f"intermediate data moved: {fmt_bytes(result.bytes_moved)}")
    if result.failed_tasks:
        print(f"tasks: {result.failed_tasks} in-transit task(s) failed "
              f"terminally and left no result")
    if args.report:
        from repro.core.report import run_report
        print("\n" + run_report(fw, result))
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from repro.analysis.topology import segment_superlevel, track_features
    from repro.sim import LiftedFlameCase, S3DProxy, StructuredGrid3D
    from repro.util import TextTable

    grid = StructuredGrid3D((32, 16, 12), lengths=(4.0, 2.0, 1.5))
    case = LiftedFlameCase(grid, seed=args.seed, kernel_rate=1.2)
    solver = S3DProxy(case)
    segs = []
    for _ in range(args.steps):
        solver.step()
        segs.append(segment_superlevel(solver.fields["T"].copy(),
                                       args.threshold, min_persistence=0.15))
    tracks = track_features(segs)
    table = TextTable(["track", "birth", "death", "lifetime"])
    for t in tracks:
        table.add_row([t.track_id, t.birth, t.death, t.lifetime])
    print(table)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.analysis.visualization import (
        Camera,
        TransferFunction,
        downsample_decomposed,
        render_blocks_insitu,
        render_intransit,
    )
    from repro.sim import LiftedFlameCase, S3DProxy, StructuredGrid3D
    from repro.util import image_rmse, write_ppm
    from repro.vmpi import BlockDecomposition3D

    shape = (32, 24, 16)
    grid = StructuredGrid3D(shape, lengths=(4.0, 3.0, 2.0))
    solver = S3DProxy(LiftedFlameCase(grid, seed=args.seed, kernel_rate=2.0))
    try:
        solver.step(args.steps)
    except ValueError as exc:
        raise SystemExit(f"--steps: {exc}") from None
    field = solver.fields["T"]
    decomp = BlockDecomposition3D(shape, (2, 2, 2))
    tf = TransferFunction.hot(float(field.min()), float(field.max()))
    cam = Camera(image_shape=(args.size, args.size))
    insitu = render_blocks_insitu(field, decomp, cam, tf)
    hybrid = render_intransit(downsample_decomposed(field, decomp, args.stride),
                              shape, cam, tf)
    write_ppm(f"{args.prefix}_insitu.ppm", insitu)
    write_ppm(f"{args.prefix}_hybrid.ppm", hybrid)
    print(f"wrote {args.prefix}_insitu.ppm and {args.prefix}_hybrid.ppm "
          f"(RMSE {image_rmse(insitu, hybrid):.4f})")
    return 0


def _write_json(path: Path, payload, sort_keys: bool = True) -> None:
    import json

    path.write_text(json.dumps(payload, indent=2, sort_keys=sort_keys),
                    encoding="utf-8")


def _plan(args: argparse.Namespace, cls=None, **fields):
    """The plan (or plan subclass ``cls``) the plan flags describe, plus
    ``fields``; a verb without ``--interval`` analyses every step. A plan
    the flags make invalid exits with the plan's reason."""
    from repro.core.runner import ReplayPlan

    if getattr(args, "analyses", None):
        fields.setdefault("analyses", args.analyses)
    try:
        return (cls or ReplayPlan)(
            n_steps=args.steps, n_buckets=args.buckets,
            analysis_interval=getattr(args, "interval", 1), **fields)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _input_trace(path: str):
    """An exported trace to blame or diff: a missing file, a damaged
    record or a trace with no spans exits 1 with one line on stderr."""
    from repro.obs import load_trace

    try:
        trace = load_trace(path)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path}: {exc.strerror}")
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not trace.closed_spans():
        raise SystemExit(f"{path}: no spans to blame or diff")
    return trace


def _cmd_replay(args: argparse.Namespace) -> int:
    want_blame = args.blame is not None or args.top_kernels
    rc, expected = 0, None
    if args.from_file:
        if args.trace is not None or args.jsonl or not (want_blame
                                                        or args.diff):
            raise SystemExit("--from FILE blames (--blame) or diffs "
                             "(--diff) an exported trace; it writes no "
                             "--trace or --jsonl")
        trace, source = _input_trace(args.from_file), args.from_file
    elif args.functional:
        from repro.core.framework import traced_functional_run

        if args.trace is None and not (args.jsonl or args.diff
                                       or want_blame):
            raise SystemExit("--functional replays only to observe: give "
                             "--trace, --jsonl, --diff or --blame")
        tracer = traced_functional_run(args.steps)
        trace = tracer.trace
        source = f"functional pipeline ({args.steps} steps)"
    else:
        from contextlib import nullcontext

        from repro.core import ExperimentConfig, ScaledExperiment
        from repro.obs.tracer import tracing

        plan = _plan(args)
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        observed = want_blame or any(
            flag is not None for flag in (args.trace, args.jsonl, args.diff))
        with tracing() if observed else nullcontext() as tracer:
            sched = exp.run_schedule(plan)
        state = "keeps pace" if sched.keeps_pace() else "queue grows"
        print(f"{args.buckets} buckets over {args.steps} steps: "
              f"max queue wait {sched.max_queue_wait():.2f} s "
              f"({state}); makespan {sched.makespan:.1f} s")
        rc = 0 if sched.keeps_pace() else 1
        if not observed:
            return rc
        trace = tracer.trace
        source = (f"paper_4896 schedule ({args.steps} steps, "
                  f"{args.buckets} buckets)")
        expected = exp.expected_stage_totals(plan)

    from repro.obs import (
        blame,
        critical_path,
        kernel_table,
        lane_summary,
        reconcile_table,
        reconcile_totals,
        top_kernels,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )

    # Wall clock is the interesting axis of the functional pipeline —
    # in-situ Python work takes no DES time.
    clock = "wall" if args.functional else "trace"
    if args.trace is not None:
        out = _resolve_out(args.trace, args.out_dir, "repro_trace.json")
        doc = write_chrome_trace(out, trace, tracer.metrics, clock=clock)
        print(f"wrote {out}: {len(doc['traceEvents'])} events, "
              f"{len(trace.closed_spans())} spans, {len(trace.lanes())} "
              f"lanes (load in Perfetto / chrome://tracing)")
    if args.jsonl:
        jsonl = _resolve_out(args.jsonl, args.out_dir, "repro_trace.jsonl")
        n_lines = write_jsonl(jsonl, trace, tracer.metrics)
        print(f"wrote {jsonl} ({n_lines} lines)")
    if args.trace is not None:
        problems = validate_chrome_trace(doc)
        if problems:
            print("trace validation FAILED:")
            for p in problems[:10]:
                print(f"  - {p}")
            return 1
        print("trace validation: ok\n")
        print(lane_summary(trace, clock=clock))
        print()
        print(critical_path(trace).table())
        print()

    if args.diff:
        from repro.obs import diff_traces
        from repro.obs.report import write_trace_diff

        diff = diff_traces(
            _input_trace(args.diff), trace, a_label=Path(args.diff).stem,
            b_label=Path(args.from_file).stem if args.from_file
            else "this run")
        print(diff.table())
        print()
        diff_html = _resolve_out(None, args.out_dir, "trace_diff.html")
        write_trace_diff(diff_html, diff)
        print(f"wrote {diff_html}")
        print()

    if args.trace is not None:
        if expected is not None:
            rows = reconcile_totals(trace.stage_totals(), expected)
            print(reconcile_table(rows))
            if not all(r.ok(0.01) for r in rows):
                rc = 1
            print()
        print(tracer.metrics.summary())

    if want_blame:
        # The functional pipeline exercises the real analysis kernels
        # (merge trees, statistics, collectives), so --functional is the
        # mode where --top-kernels has something to rank.
        report = blame(trace)
        print(f"source: {source}")
        print(report.table())
        if args.top_kernels:
            print()
            print(kernel_table(top_kernels(trace, n=args.top_kernels)))
        out = _resolve_out(args.blame, args.out_dir, "repro_blame.json")
        _write_json(out, report.to_dict(), sort_keys=False)
        print(f"\nwrote {out}")
        windows = [("overall", report.overall)] + [
            (f"step {s.step}", s.breakdown) for s in report.steps]
        bad = [name for name, bd in windows if not bd.check()]
        if bad:
            print(f"blame attribution FAILED: buckets do not sum to the "
                  f"window for {', '.join(bad)}")
            return 1
        print(f"exact-sum check: ok ({len(windows)} windows, buckets sum to "
              f"each window within 1e-6)")
    return rc


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.checks import run_checks, select

    try:
        entries = select(args.names)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return 0 if run_checks(entries, _resolve_out(
        None, args.out_dir, "repro_check.json")) else 1


def _parse_kv_floats(pairs: list[str], option: str) -> dict[str, float]:
    """``["a=1.5", "b=0"] -> {"a": 1.5, "b": 0.0}`` with a clear error."""
    out: dict[str, float] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"{option} expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            raise SystemExit(
                f"{option}: value for {key!r} is not a number: {raw!r}"
            ) from None
    return out


def _report_skipped(store) -> None:
    """Say so when the last ``store.records()`` read stepped over lines."""
    if store.skipped:
        print(f"skipped {store.skipped} unreadable line(s) in {store.path}")


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.obs.perf import (
        RunStore,
        collect_run_record,
        compare_record,
        perturbed_cost_model,
    )

    out_dir = _anchor(args.out_dir)
    store = RunStore(args.store if args.store else out_dir / "perf")
    baseline_store = RunStore(args.baseline)
    perturb = _parse_kv_floats(args.perturb, "--perturb") or None
    if perturb:
        try:
            perturbed_cost_model(perturb)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"--perturb: {exc.args[0]}") from None

    def fresh_record(source: str):
        return collect_run_record(_plan(args, fault_seed=args.seed),
                                  source=source, perturb=perturb)

    if args.action == "record":
        record = fresh_record(args.source)
        path = store.append(record)
        print(f"recorded run {record.run_id} "
              f"(git {record.git_sha or 'n/a'}) -> {path}")
        print(f"  {len(record.metrics)} metrics, "
              f"{int(record.metrics.get('probe.samples', 0))} probe "
              f"samples, {int(record.metrics.get('slo.alerts', 0))} SLO "
              f"alerts; store now holds {len(store)} runs")
        return 0

    if args.action == "compare":
        base_records = baseline_store.records()
        _report_skipped(baseline_store)
        if not base_records:
            print(f"no baseline records in {baseline_store.path} — run "
                  f"`python -m repro perf record --store "
                  f"{baseline_store.root}` first")
            return 2
        record = fresh_record("compare")
        report = compare_record(record, base_records[-1])
        print(report.table())
        usages = record.meta.get("top_kernels") or []
        if usages:
            from repro.obs.blame import KernelUsage, kernel_table

            print()
            print(kernel_table([KernelUsage(**u) for u in usages]))
            print(f"(kernel ranking recorded under backend "
                  f"{record.meta.get('backend', 'reference')!r})")
        counts = report.counts()
        summary = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        print(f"\ngate: {'PASS' if report.ok else 'FAIL'} ({summary})")
        return 0 if report.ok else 1

    # report: render the dashboard over the store (fall back to the
    # committed baseline so a fresh checkout still gets a page).
    from repro.obs.report import write_dashboard

    which = store if len(store) else baseline_store
    records = which.records()
    base_records = baseline_store.records()
    report = (compare_record(records[-1], base_records[-1])
              if records and base_records else None)
    out = _resolve_out(args.html, args.out_dir, "perf_dashboard.html")
    write_dashboard(out, records, report)
    print(f"wrote {out} ({len(records)} runs from {which.path}"
          f"{', with gate panel' if report is not None else ''})")
    if not records:
        print("store is empty — run `python -m repro perf record` first")
    return 0


def _service_state(args: argparse.Namespace) -> Path:
    """Service state directory (schedule cache + job records)."""
    state = _anchor(args.state_dir) if args.state_dir else (
        _anchor(args.out_dir) / "service")
    state.mkdir(parents=True, exist_ok=True)
    return state


def _load_batch(path: Path) -> tuple[list, list]:
    """Parse a JSONL batch file into (specs, quotas).

    Each line is either a job spec or ``{"quota": {...}}``.
    """
    import json

    from repro.service import JobSpec, TenantQuota

    specs, quotas = [], []
    if not path.is_file():
        raise SystemExit(f"no such batch file: {path}")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"{path}:{lineno}: not valid JSON: {exc}") from None
            try:
                if isinstance(d, dict) and "quota" in d:
                    quotas.append(TenantQuota(**d["quota"]))
                else:
                    specs.append(JobSpec.from_dict(d))
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"{path}:{lineno}: {exc}") from None
    return specs, quotas


def _parse_quota_flags(pairs: list[str]) -> list:
    """``--quota TENANT=N`` flags -> :class:`TenantQuota` list."""
    from repro.service import TenantQuota

    quotas = []
    for pair in pairs:
        tenant, sep, raw = pair.partition("=")
        if not sep or not tenant:
            raise SystemExit(f"--quota expects TENANT=N, got {pair!r}")
        try:
            quotas.append(TenantQuota(tenant, max_concurrent=int(raw)))
        except ValueError as exc:
            raise SystemExit(f"--quota {pair!r}: {exc}") from None
    return quotas


def _drain_live(args: argparse.Namespace, make_service: Callable,
                specs: list, info):
    """Drain the batch with the live plane on: a recording tracer, the
    telemetry bus and probes every 5 simulated seconds. Events go to
    ``--out`` and, with ``--jsonl``, to stdout before one summary line;
    ``--follow`` repaints the view every 60 service seconds."""
    import json
    import time
    from contextlib import nullcontext

    from repro.obs import TelemetryBus, event_to_json, render_top
    from repro.obs.tracer import tracing

    bus = TelemetryBus()
    sub = bus.subscribe("cli")
    out_path = (_resolve_out(args.out, args.out_dir, "repro_live.jsonl")
                if args.out else None)
    # The bus hooks live on a recording tracer, and everything publishes
    # DES-clock data only, so a same-seed batch over the same cache state
    # streams byte-identical events. The service attaches the bus itself
    # once its worker pool is up.
    with tracing(), (open(out_path, "w", encoding="utf-8") if out_path
                     else nullcontext()) as out_fh:
        service = make_service(bus=bus, probe_interval=5.0)
        for spec in specs:
            service.submit(spec)
        # Step the engine event by event and drain the bus once per
        # minute of service time and at the drain: the cadence sets how
        # often the view repaints, never the stream, and the clock stops
        # exactly at the drain.
        engine, boundary = service.engine, 60.0
        while not engine.idle():
            engine.run(until=engine.next_event_time())
            if engine.now < boundary and not engine.idle():
                continue
            boundary = engine.now + 60.0
            for event in sub.poll():
                line = event_to_json(event)
                if args.jsonl:
                    print(line)
                if out_fh is not None:
                    out_fh.write(line + "\n")
            if args.follow:
                print(render_top(service, bus, service.monitor) + "\n")
                time.sleep(args.refresh)
        report = service.report()

    by_tenant = {t: r.alerts for t, r in sorted(report.tenants.items())}
    if args.jsonl:
        print(json.dumps({"summary": {
            "duration": report.duration,
            "jobs": len(report.jobs),
            "all_done": report.all_done,
            "events_published": bus.published,
            "events_dropped": bus.dropped_total,
            "events_dropped_by_kind": dict(sorted(
                bus.dropped_by_kind.items())),
            "subscriber_dropped": sub.dropped,
            "alerts": by_tenant,
        }}, sort_keys=True, separators=(",", ":")))
    else:
        print(render_top(service, bus, service.monitor))
        print(f"\nbatch drained at t={report.duration:.3f}s: "
              f"{bus.published} events, {bus.dropped_total} dropped, "
              f"{len(report.alerts)} alert(s) "
              f"({', '.join(f'{t}={n}' for t, n in by_tenant.items())})")
    if out_path is not None:
        print(f"wrote {out_path}", file=info)
    return report


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.perf import RunStore
    from repro.service import CampaignService, ScheduleCache, TenantQuota

    specs, quotas = _load_batch(Path(args.jobs))
    if not specs:
        raise SystemExit(f"batch file {args.jobs} holds no jobs")
    # Quota precedence: batch lines, then --quota, then --default-quota.
    quotas += _parse_quota_flags(args.quota)
    state = _service_state(args)
    make_service = partial(
        CampaignService, workers=args.workers, quotas=quotas,
        default_quota=TenantQuota("*", max_concurrent=args.default_quota),
        cache=ScheduleCache(state / "cache"),
        jobs_store=RunStore(state / "jobs"))
    # --jsonl keeps stdout for the event lines and the summary line.
    info = sys.stderr if args.jsonl else sys.stdout
    if args.follow or args.jsonl or args.out:
        report = _drain_live(args, make_service, specs, info)
    else:
        report = make_service().run_batch(specs)

    print(report.table(), file=info)
    if report.shard_balance is not None:
        bal = report.shard_balance
        print(f"shard balance over {bal.n_shards} shard(s): "
              f"imbalance {bal.imbalance('tasks'):.2f}x tasks, "
              f"{bal.imbalance('bytes'):.2f}x bytes", file=info)
    out = _resolve_out(args.report, args.out_dir, "service_report.json")
    _write_json(out, report.to_dict())
    print(f"wrote {out}", file=info)

    alerts = {t: r.alerts for t, r in report.tenants.items()}
    problems = [
        f"FAILED {job.job_id}: {job.error}" if job.state.value == "failed"
        else f"STUCK {job.job_id}: still {job.state.value} after drain"
        for job in report.jobs if job.state.value != "done"]
    if (args.min_cache_hit_rate is not None
            and report.cache_hit_rate < args.min_cache_hit_rate):
        problems.append(f"CACHE MISS RATE TOO HIGH: hit rate "
                        f"{report.cache_hit_rate:.0%} < required "
                        f"{args.min_cache_hit_rate:.0%}")
    if args.expect_quota_held and report.held_events == 0:
        problems.append("EXPECTED QUOTA ENFORCEMENT: no job was ever held")
    problems += [f"EXPECTED ALERTS for tenant {t!r}, got none"
                 for t in args.expect_alerts if not alerts.get(t)]
    problems += [f"EXPECTED NO ALERTS for tenant {t!r}, got {alerts[t]}"
                 for t in args.expect_clean if alerts.get(t)]
    for line in problems:
        print(line, file=info)
    return 1 if problems else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import JobSpec

    spec = _plan(
        args, JobSpec, tenant=args.tenant, name=args.name,
        config=args.config, n_shards=args.shards, submit_at=args.submit_at,
        lease_timeout=args.lease_timeout, fault_seed=args.fault_seed,
        crash_times=args.crash_times,
        pull_failure_rate=args.pull_failure_rate,
        pull_stall_rate=args.stall_rate,
        pull_stall_seconds=args.stall_seconds)
    path = Path(args.jobs)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(spec.to_dict(), sort_keys=True) + "\n")
    print(f"queued {spec.tenant}/{spec.name} ({spec.config}, "
          f"{spec.n_steps} steps, {spec.n_buckets} buckets, "
          f"{spec.n_shards} shard(s)) -> {path}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.obs.perf import RunStore
    from repro.service.api import JOBS_SOURCE

    state = _service_state(args)
    store = RunStore(state / "jobs")
    records = [r for r in store.records() if r.source == JOBS_SOURCE]
    _report_skipped(store)
    if args.tenant:
        records = [r for r in records
                   if r.meta.get("tenant") == args.tenant]
    if args.limit:
        records = records[-args.limit:]
    if not records:
        print(f"no job records in {store.path}")
        return 0
    header = (f"{'job':<28} {'tenant':<10} {'state':<7} {'cache':<5} "
              f"{'wait (s)':>9} {'makespan (s)':>12}")
    print(header)
    print("-" * len(header))
    for rec in records:
        meta = rec.meta
        wait = rec.metrics.get("service.queue_wait_s", 0.0)
        span = rec.metrics.get("service.makespan_s", 0.0)
        print(f"{meta.get('job_id', rec.run_id):<28} "
              f"{meta.get('tenant', '?'):<10} "
              f"{meta.get('state', '?'):<7} "
              f"{'hit' if meta.get('cache_hit') else 'miss':<5} "
              f"{wait:>9.3f} {span:>12.3f}")
    print(f"{len(records)} job(s) from {store.path}")
    return 0


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite_float.__name__ = "float"  # "invalid float value: 'x'"


def _at_least(least, cast=int, most=None):
    """argparse type: a ``cast`` number no smaller than ``least`` and, if
    ``most`` is given, no larger than ``most`` (NaN is neither)."""
    def parse(text: str):
        value = cast(text)
        if not (least <= value and (most is None or value <= most)):
            raise argparse.ArgumentTypeError(
                f"must be >= {least}, got {text}" if most is None
                else f"must be in [{least}, {most}], got {text}")
        return value
    parse.__name__ = cast.__name__  # "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid in-situ/in-transit analysis framework "
                    "(SC'12 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups several verbs share, each declared once (argparse
    # ``parents=``).
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default="repro_out",
                         help="artifact directory (default: repro_out/)")
    state_dir = argparse.ArgumentParser(add_help=False, parents=[out_dir])
    state_dir.add_argument("--state-dir", default=None,
                           help="service state directory holding the "
                                "schedule cache and job records "
                                "(default: <out-dir>/service)")

    def plan_flags(steps: int | None = None, buckets: int | None = None,
                   interval: bool = False, analyses: bool = False
                   ) -> argparse.ArgumentParser:
        """``--steps``, ``--buckets`` (each at the verb's own default,
        None = the verb has no such flag), ``--interval`` and
        ``--analyses`` for the verbs that describe a replay plan."""
        flags = argparse.ArgumentParser(add_help=False)
        if steps is not None:
            flags.add_argument("--steps", type=int, default=steps)
        if buckets is not None:
            flags.add_argument("--buckets", type=int, default=buckets)
        if interval:
            flags.add_argument("--interval", type=int, default=1,
                               help="analysis interval (steps between "
                                    "analysed steps)")
        if analyses:
            flags.add_argument("--analyses", nargs="+", default=None,
                               metavar="VARIANT",
                               help="analytics variants (default: the three "
                                    "hybrid variants)")
        return flags

    sub.add_parser("tables", help="print the Table I/II reproductions and "
                                   "the analysis delivery trade-off")

    p = sub.add_parser("simulate", help="run the functional hybrid pipeline",
                       parents=[plan_flags(5, 4)])
    p.add_argument("--grid", type=int, nargs=3, default=[24, 16, 12])
    p.add_argument("--ranks", type=int, nargs=3, default=[2, 2, 2])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--streaming", action="store_true",
                   help="stream the topology glue (§VI mode)")
    p.add_argument("--report", action="store_true",
                   help="print the full run report (tasks, occupancy)")

    p = sub.add_parser("track", help="feature tracking (Fig. 1)")
    p.add_argument("--steps", type=_at_least(1), default=12)
    p.add_argument("--threshold", type=_finite_float, default=1.6)
    p.add_argument("--seed", type=int, default=11)

    p = sub.add_parser("render", help="render both visualization modes",
                       parents=[plan_flags(steps=5)])
    p.add_argument("--stride", type=_at_least(1), default=2)
    p.add_argument("--size", type=_at_least(1), default=48)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--prefix", default="repro_render")

    p = sub.add_parser("replay", help="replay one run once and attach "
                                      "observers to it (trace, event log, "
                                      "diff, blame)",
                       parents=[plan_flags(10, 8, interval=True,
                                           analyses=True), out_dir])
    p.add_argument("--functional", action="store_true",
                   help="replay the laptop-scale functional pipeline (real "
                        "kernels, wall clock) instead of the full-scale DES "
                        "replay")
    p.add_argument("--from", dest="from_file", default=None, metavar="FILE",
                   help="blame or diff this exported trace (JSONL or Chrome "
                        "JSON) instead of replaying")
    p.add_argument("--trace", nargs="?", const="repro_trace.json",
                   default=None, metavar="PATH",
                   help="write and validate a Chrome trace, then print the "
                        "critical path and the model reconciliation "
                        "(default path: <out-dir>/repro_trace.json)")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="write a JSON-lines event log")
    p.add_argument("--diff", default=None, metavar="OTHER",
                   help="diff against a previously exported trace (JSONL "
                        "keeps flow fidelity; the other run is the "
                        "reference); writes <out-dir>/trace_diff.html")
    p.add_argument("--blame", nargs="?", const="repro_blame.json",
                   default=None, metavar="PATH",
                   help="split the makespan and each step's latency into "
                        "blame buckets (default path: "
                        "<out-dir>/repro_blame.json)")
    p.add_argument("--top-kernels", type=_at_least(0), default=0, metavar="N",
                   help="blame, and rank the top N kernels by wall time "
                        "(kernel-tagged spans from the backend seam)")

    p = sub.add_parser("check", help="check the paper's rows and the seeded "
                                     "scenarios against the model",
                       parents=[out_dir])
    p.add_argument("names", nargs="*", metavar="SELECTOR",
                   help="a group (paper, scenarios), a section or an id "
                        "prefix (default: every entry); writes "
                        "<out-dir>/repro_check.json")

    p = sub.add_parser("perf", help="cross-run records, regression gate, "
                                    "HTML dashboard",
                       parents=[plan_flags(10, 8), out_dir])
    p.add_argument("action", choices=("record", "compare", "report"),
                   help="record: append a run record to the store; "
                        "compare: gate a fresh run against the baseline "
                        "(exit 1 on regression); report: write the HTML "
                        "dashboard")
    p.add_argument("--store", default=None,
                   help="run-store directory (default: <out-dir>/perf)")
    p.add_argument("--baseline", default="benchmarks/results/baseline",
                   help="baseline store directory; compare and report "
                        "judge against its newest record")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection seed for the recovery phase")
    p.add_argument("--source", default="cli",
                   help="source tag stored in the record")
    p.add_argument("--perturb", action="append", default=[],
                   metavar="OP=FACTOR",
                   help="multiply a cost-model op rate (repeatable), e.g. "
                        "--perturb topo.subtree=1.5 — demonstrates the "
                        "gate tripping")
    p.add_argument("--html", default=None,
                   help="dashboard path (default: "
                        "<out-dir>/perf_dashboard.html)")

    p = sub.add_parser("serve", help="drain a multi-tenant campaign batch "
                                     "through the service layer (--follow, "
                                     "--jsonl or --out: live telemetry and "
                                     "burn-rate alerts)",
                       parents=[state_dir])
    p.add_argument("--jobs", required=True,
                   help="JSONL batch file (one job spec per line; "
                        '{"quota": {...}} lines set tenant quotas)')
    p.add_argument("--workers", type=_at_least(1), default=2,
                   help="DES worker pool size (default: 2)")
    p.add_argument("--quota", action="append", default=[],
                   metavar="TENANT=N",
                   help="max concurrent jobs for a tenant (repeatable); "
                        "overrides quota lines in the batch file")
    p.add_argument("--default-quota", type=_at_least(1), default=2,
                   help="max concurrent jobs for tenants without an "
                        "explicit quota (default: 2)")
    p.add_argument("--report", default=None,
                   help="batch report JSON path "
                        "(default: <out-dir>/service_report.json)")
    p.add_argument("--min-cache-hit-rate", type=_at_least(0.0, float, 1.0),
                   default=None, metavar="RATE",
                   help="exit 1 if the batch cache hit rate is below RATE, "
                        "in [0, 1] (e.g. 1.0 for a warm resubmission)")
    p.add_argument("--expect-quota-held", action="store_true",
                   help="exit 1 unless admission control held at least "
                        "one job (quota-enforcement smoke check)")
    live = p.add_mutually_exclusive_group()
    live.add_argument("--follow", action="store_true",
                      help="repaint the live view every 60 service seconds "
                           "while the batch drains")
    live.add_argument("--jsonl", action="store_true",
                      help="emit bus events as JSON lines (one per event) "
                           "plus a final summary line on stdout, for "
                           "collectors; everything else goes to stderr")
    p.add_argument("--refresh", type=_at_least(0.0, _finite_float),
                   default=1.0,
                   help="wall seconds between --follow frames (default: "
                        "1.0; 0 drains at machine speed)")
    p.add_argument("--out", default=None,
                   help="also tee the event stream to this JSONL file "
                        "(relative paths land under --out-dir)")
    p.add_argument("--expect-alerts", action="append", default=[],
                   metavar="TENANT",
                   help="exit 1 unless this tenant raised >= 1 burn-rate "
                        "alert (repeatable; smoke-test gate)")
    p.add_argument("--expect-clean", action="append", default=[],
                   metavar="TENANT",
                   help="exit 1 if this tenant raised any alert "
                        "(repeatable; smoke-test gate)")

    p = sub.add_parser("submit", help="append one job to a JSONL batch file",
                       parents=[plan_flags(10, 8, interval=True,
                                           analyses=True)])
    p.add_argument("--jobs", required=True,
                   help="JSONL batch file to append to (created if missing)")
    p.add_argument("--tenant", required=True)
    p.add_argument("--name", required=True, help="job name (for reports)")
    p.add_argument("--config", default="paper_4896",
                   choices=("paper_4896", "paper_9440"),
                   help="machine allocation to replay (Table I column)")
    p.add_argument("--shards", type=int, default=1,
                   help="DataSpaces shards for this job's staging area")
    p.add_argument("--submit-at", type=float, default=0.0,
                   help="service-clock submission time (default: 0)")
    p.add_argument("--lease-timeout", type=float, default=None,
                   help="scheduler lease timeout for the replay "
                        "(required with --crash-times)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for this job's fault-injection plan")
    p.add_argument("--crash-times", type=float, nargs="*", default=[],
                   help="bucket crash instants in the replay "
                        "(simulated seconds)")
    p.add_argument("--pull-failure-rate", type=float, default=0.0,
                   help="probability one RDMA pull attempt fails")
    p.add_argument("--stall-rate", type=float, default=0.0,
                   help="probability one RDMA pull attempt stalls")
    p.add_argument("--stall-seconds", type=float, default=0.0,
                   help="wire seconds each stalled pull loses")

    p = sub.add_parser("jobs", help="list completed service job records",
                       parents=[state_dir])
    p.add_argument("--tenant", default=None,
                   help="only this tenant's jobs")
    p.add_argument("--limit", type=_at_least(0), default=0,
                   help="only the last N records (0 = all)")
    return parser


_COMMANDS = {
    "tables": _cmd_tables,
    "simulate": _cmd_simulate,
    "track": _cmd_track,
    "render": _cmd_render,
    "replay": _cmd_replay,
    "check": _cmd_check,
    "perf": _cmd_perf,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

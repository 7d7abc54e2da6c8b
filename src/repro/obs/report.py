"""Self-contained HTML performance dashboard (no external assets).

Renders a :class:`~repro.obs.perf.RunStore`'s trajectory — plus an
optional regression-gate report — into one HTML file with inline SVG:

* metric trajectory cards (sparkline across runs, last value, delta);
* a Fig. 5/6-style stage-breakdown panel (stacked horizontal bars:
  in-situ / data movement / in-transit per task);
* the SLO rule list and any alert instants from the live probes;
* a fault-recovery panel (MTTR, reassignments, restarts across runs);
* the per-metric verdict table when a gate comparison is supplied.

Everything is generated text: no JavaScript, no fonts, no CDN. Hover
detail rides on native SVG/``title`` tooltips and a ``<details>`` table
mirrors the plotted numbers, so the page degrades to plain data. Colors
follow a validated light/dark palette (categorical slots for series,
reserved status colors for verdicts) declared once as CSS custom
properties.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any

from repro.obs.blame import TraceDiff
from repro.obs.flow import BLAME_BUCKETS
from repro.obs.perf import RegressionReport, RunRecord

__all__ = ["render_dashboard", "write_dashboard",
           "render_trace_diff", "write_trace_diff"]

#: Blame bucket -> reserved palette slot (stable across panels).
_BUCKET_COLORS = {
    "compute": "var(--series-1)",
    "transport": "var(--series-2)",
    "queue_wait": "var(--series-3)",
    "retry_backoff": "var(--warning)",
    "scheduler_idle": "var(--muted)",
}

_STAGE_SERIES = (  # fixed order -> categorical slots 1..3
    ("in-situ", "var(--series-1)"),
    ("data movement", "var(--series-2)"),
    ("in-transit", "var(--series-3)"),
)

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-1);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-1: #0b0b0b; --text-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  --delta-good: #006300;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-1: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --delta-good: #0ca30c;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--text-1); }
.meta { color: var(--text-2); margin-bottom: 10px; }
.meta code { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 4px; padding: 1px 5px; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px; min-width: 190px;
}
.card .name { color: var(--text-2); font-size: 12px;
  overflow-wrap: anywhere; }
.card .value { font-size: 20px; margin: 2px 0; }
.card .delta { font-size: 12px; color: var(--text-2); }
.card .delta.up { color: var(--critical); }
.card .delta.down { color: var(--delta-good); }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px;
}
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--text-2); font-weight: 600; }
td.num, th.num { text-align: right; }
.status { font-weight: 600; }
.status.regressed, .status.missing { color: var(--critical); }
.status.improved { color: var(--delta-good); }
.status.ok { color: var(--text-2); font-weight: 400; }
.status.new, .status.info { color: var(--muted); font-weight: 400; }
.legend { display: flex; gap: 16px; color: var(--text-2);
  font-size: 12px; margin: 6px 0 10px; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
.alert { margin: 4px 0; }
.alert .dot { display: inline-block; width: 8px; height: 8px;
  border-radius: 50%; margin-right: 7px; }
.ok-line { color: var(--text-2); }
details { margin-top: 14px; color: var(--text-2); }
summary { cursor: pointer; }
.spark { display: block; }
footer { margin-top: 28px; color: var(--muted); font-size: 12px; }
"""


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    mag = abs(value)
    if value == int(value) and mag < 1e15:
        return f"{int(value):,}"
    if mag != 0 and (mag >= 1e6 or mag < 1e-3):
        return f"{value:.3e}"
    return f"{value:,.4g}"


def _sparkline(values: list[float], width: int = 170, height: int = 40,
               label: str = "") -> str:
    """Inline SVG sparkline: a 2px series-1 line with an end dot."""
    if not values:
        return ""
    pad = 4
    lo, hi = min(values), max(values)
    span = hi - lo
    n = len(values)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        frac = (v - lo) / span if span else 0.5
        y = height - pad - (height - 2 * pad) * frac
        return x, y

    points = " ".join(f"{x:.1f},{y:.1f}"
                      for x, y in (xy(i, v) for i, v in enumerate(values)))
    ex, ey = xy(n - 1, values[-1])
    title = (f"{_esc(label)}: {n} runs, min {_fmt(lo)}, max {_fmt(hi)}, "
             f"last {_fmt(values[-1])}")
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{title}"><title>{title}</title>'
        f'<polyline points="{points}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round" '
        f'stroke-linecap="round"/>'
        f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="3" '
        f'fill="var(--series-1)"/></svg>'
    )


def _trajectory_cards(records: list[RunRecord],
                      metrics: list[str]) -> list[str]:
    parts: list[str] = ['<div class="cards">']
    for name in metrics:
        values = [r.metrics[name] for r in records if name in r.metrics]
        if not values:
            continue
        delta_html = ""
        if len(values) >= 2 and values[-2] != 0:
            rel = (values[-1] - values[-2]) / abs(values[-2])
            if abs(rel) > 1e-12:
                cls = "up" if rel > 0 else "down"
                arrow = "▲" if rel > 0 else "▼"
                delta_html = (f'<div class="delta {cls}">{arrow} '
                              f'{100 * rel:+.2f}% vs previous run</div>')
            else:
                delta_html = '<div class="delta">unchanged</div>'
        parts.append(
            f'<div class="card"><div class="name">{_esc(name)}</div>'
            f'<div class="value">{_fmt(values[-1])}</div>'
            f'{_sparkline(values, label=name)}{delta_html}</div>')
    parts.append("</div>")
    return parts


def _stage_breakdown_panel(breakdown: dict[str, dict[str, float]]
                           ) -> list[str]:
    """Stacked horizontal bars, one row per task, shared linear scale."""
    width, bar_h, gap = 560, 18, 2
    label_w, value_w = 150, 90
    plot_w = width - label_w - value_w
    totals = {task: sum(bars.values()) for task, bars in breakdown.items()}
    scale_max = max(totals.values(), default=0.0) or 1.0
    parts = ['<div class="panel">', '<div class="legend">']
    for series, color in _STAGE_SERIES:
        parts.append(f'<span><span class="swatch" '
                     f'style="background:{color}"></span>'
                     f'{_esc(series)}</span>')
    parts.append("</div>")
    n = len(breakdown)
    svg_h = n * (bar_h + 10) + 4
    parts.append(f'<svg width="{width}" height="{svg_h}" '
                 f'viewBox="0 0 {width} {svg_h}" role="img" '
                 f'aria-label="per-timestep stage breakdown">')
    y = 2.0
    for task, bars in breakdown.items():
        parts.append(f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
                     f'text-anchor="end" fill="var(--text-2)" '
                     f'font-size="12">{_esc(task)}</text>')
        x = float(label_w)
        for series, color in _STAGE_SERIES:
            value = bars.get(series, 0.0)
            if value <= 0:
                continue
            w = max(plot_w * value / scale_max - gap, 1.0)
            title = f"{_esc(task)} — {_esc(series)}: {value:.3f} s"
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
                f'height="{bar_h}" rx="2" fill="{color}">'
                f'<title>{title}</title></rect>')
            x += w + gap
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h - 5}" '
                     f'fill="var(--text-1)" font-size="12">'
                     f'{totals[task]:.2f} s</text>')
        y += bar_h + 10
    parts.append("</svg></div>")
    return parts


def _slo_panel(slo_rules: list[dict[str, Any]],
               alerts: list[dict[str, Any]]) -> list[str]:
    parts = ['<div class="panel">']
    # Records written before the probe rules became objectives name an
    # alert's objective ``rule`` and its target ``threshold``.
    alerts = [{**a, "objective": a.get("objective", a.get("rule")),
               "target": a.get("target", a.get("threshold"))}
              for a in alerts]
    breached = {a["objective"] for a in alerts}
    if slo_rules:
        for rule in slo_rules:
            name = rule.get("name", "?")
            desc = rule.get("description") or (
                f"{rule.get('metric')} <= {rule.get('target')}")
            if name in breached:
                parts.append(f'<div class="alert"><span class="dot" '
                             f'style="background:var(--critical)"></span>'
                             f'<strong>✕ {_esc(name)}</strong> — breached '
                             f'<span class="ok-line">({_esc(desc)})</span>'
                             f'</div>')
            else:
                parts.append(f'<div class="alert"><span class="dot" '
                             f'style="background:var(--good)"></span>'
                             f'✓ {_esc(name)} '
                             f'<span class="ok-line">({_esc(desc)})</span>'
                             f'</div>')
    if alerts:
        parts.append("<table><tr><th>objective</th><th class='num'>t (s)"
                     "</th><th class='num'>value</th><th class='num'>target"
                     "</th><th>message</th></tr>")
        for a in alerts:
            parts.append(
                f"<tr><td>{_esc(a['objective'])}</td>"
                f"<td class='num'>{_fmt(a.get('t'))}</td>"
                f"<td class='num'>{_fmt(a.get('value'))}</td>"
                f"<td class='num'>{_fmt(a['target'])}</td>"
                f"<td>{_esc(a.get('message', ''))}</td></tr>")
        parts.append("</table>")
    elif not slo_rules:
        parts.append('<div class="ok-line">no SLO rules were attached to '
                     'the last recorded run</div>')
    else:
        parts.append('<div class="ok-line">no alerts — every rule held '
                     'for the whole run</div>')
    parts.append("</div>")
    return parts


def _verdict_panel(report: RegressionReport, max_rows: int = 60
                   ) -> list[str]:
    counts = report.counts()
    summary = ", ".join(f"{counts[k]} {k}" for k in
                        ("regressed", "missing", "improved", "ok", "new",
                         "info") if counts.get(k))
    state = ("<span class='status ok'>PASS</span>" if report.ok
             else "<span class='status regressed'>FAIL</span>")
    parts = [f'<div class="panel"><p>Gate: {state} '
             f'<span class="ok-line">({_esc(summary)}; baseline of '
             f'{report.n_baseline_records} records)</span></p>']
    order = {"regressed": 0, "missing": 1, "improved": 2, "new": 3,
             "ok": 4, "info": 5}
    rows = sorted(report.verdicts,
                  key=lambda v: (order.get(v.status, 9), v.metric))
    parts.append("<table><tr><th>metric</th><th class='num'>baseline</th>"
                 "<th class='num'>value</th><th class='num'>delta</th>"
                 "<th>verdict</th></tr>")
    for v in rows[:max_rows]:
        rel = v.rel_delta
        delta = ("—" if rel is None
                 else f"{100 * rel:+.2f}%" if abs(rel) != float("inf")
                 else f"{v.delta:+.4g}")
        parts.append(
            f"<tr><td>{_esc(v.metric)}</td>"
            f"<td class='num'>{_fmt(v.median)}</td>"
            f"<td class='num'>{_fmt(v.value)}</td>"
            f"<td class='num'>{delta}</td>"
            f"<td><span class='status {_esc(v.status)}'>{_esc(v.status)}"
            f"</span></td></tr>")
    parts.append("</table>")
    if len(rows) > max_rows:
        parts.append(f'<div class="ok-line">({len(rows) - max_rows} more '
                     f'rows not shown)</div>')
    parts.append("</div>")
    return parts


def _probe_cards(probe_series: dict[str, list[list[float]]]) -> list[str]:
    parts = ['<div class="cards">']
    for name in sorted(probe_series):
        series = probe_series[name]
        if not series:
            continue
        values = [float(v) for _t, v in series]
        parts.append(
            f'<div class="card"><div class="name">{_esc(name)}</div>'
            f'<div class="value">{_fmt(values[-1])}</div>'
            f'{_sparkline(values, label=name)}'
            f'<div class="delta">{len(values)} samples, peak '
            f'{_fmt(max(values))}</div></div>')
    parts.append("</div>")
    return parts


def _capacity_panel(cap: dict[str, Any]) -> list[str]:
    """The capacity-ledger panel: headroom headline, resident-bytes
    sparkline, per-scope watermark rows, and any leaked regions."""
    parts = ['<div class="panel">']
    bound = cap.get("analytic_bound_bytes")
    peak = cap.get("peak_resident_bytes", 0)
    headroom = cap.get("headroom_bytes")
    leaks = cap.get("leaks") or []
    violated = bool(cap.get("headroom_violations"))
    state_cls = "regressed" if (leaks or violated) else "ok"
    state = "LEAK/OVERRUN" if (leaks or violated) else "clean"
    parts.append(
        f'<p><span class="status {state_cls}">{state}</span> '
        f'<span class="ok-line">— measured peak {_fmt(peak)} bytes vs '
        f'analytic bound {_fmt(bound)} bytes '
        f'(headroom {_fmt(headroom)}); NIC peak '
        f'{_fmt(cap.get("nic_peak_bytes"))} bytes over '
        f'{_fmt(cap.get("n_transfers"))} transfers, '
        f'{len(leaks)} leaked region(s)</span></p>')
    series = cap.get("resident_series") or []
    if series:
        values = [float(v) for _t, v in series]
        parts.append(
            f'<div class="card"><div class="name">resident staging bytes '
            f'(DES clock)</div><div class="value">{_fmt(values[-1])}</div>'
            f'{_sparkline(values, label="capacity.resident_bytes")}'
            f'<div class="delta">{len(values)} ledger transitions, peak '
            f'{_fmt(max(values))}</div></div>')
    scope_rows: list[tuple[str, dict[str, Any]]] = []
    for label, key in (("tenant", "by_tenant"), ("shard", "by_shard"),
                       ("source", "by_source")):
        for name, acct in sorted((cap.get(key) or {}).items()):
            scope_rows.append((f"{label}:{name}", acct))
    if scope_rows:
        parts.append("<table><tr><th>scope</th><th class='num'>peak</th>"
                     "<th class='num'>registered</th>"
                     "<th class='num'>released</th>"
                     "<th class='num'>resident</th>"
                     "<th class='num'>nic bytes</th></tr>")
        for name, acct in scope_rows:
            parts.append(
                f"<tr><td>{_esc(name)}</td>"
                f"<td class='num'>{_fmt(acct.get('peak_bytes'))}</td>"
                f"<td class='num'>{_fmt(acct.get('registered_bytes'))}</td>"
                f"<td class='num'>{_fmt(acct.get('released_bytes'))}</td>"
                f"<td class='num'>{_fmt(acct.get('resident_bytes'))}</td>"
                f"<td class='num'>{_fmt(acct.get('nic_bytes'))}</td></tr>")
        parts.append("</table>")
    if leaks:
        parts.append("<table><tr><th>leaked region</th>"
                     "<th class='num'>bytes</th><th>shard</th>"
                     "<th>source</th><th>analysis</th><th>tenant</th></tr>")
        for leak in leaks:
            parts.append(
                f"<tr><td>{_esc(leak.get('region_id'))}</td>"
                f"<td class='num'>{_fmt(leak.get('nbytes'))}</td>"
                f"<td>{_esc(leak.get('shard'))}</td>"
                f"<td>{_esc(leak.get('source'))}</td>"
                f"<td>{_esc(leak.get('analysis') or '-')}</td>"
                f"<td>{_esc(leak.get('tenant'))}</td></tr>")
        parts.append("</table>")
    parts.append("</div>")
    return parts


def _runs_table(records: list[RunRecord], metrics: list[str],
                max_runs: int = 8) -> list[str]:
    recent = records[-max_runs:]
    parts = ["<details><summary>Data table (recent runs × metrics)"
             "</summary><table><tr><th>metric</th>"]
    for rec in recent:
        parts.append(f"<th class='num'>{_esc(rec.created_at[:10])}<br>"
                     f"{_esc((rec.git_sha or rec.run_id)[:8])}</th>")
    parts.append("</tr>")
    for name in metrics:
        parts.append(f"<tr><td>{_esc(name)}</td>")
        for rec in recent:
            parts.append(f"<td class='num'>"
                         f"{_fmt(rec.metrics.get(name))}</td>")
        parts.append("</tr>")
    parts.append("</table></details>")
    return parts


def render_dashboard(records: list[RunRecord],
                     report: RegressionReport | None = None) -> str:
    """Render the store's records (oldest first) into one HTML page."""
    title = "repro — cross-run performance"
    parts: list[str] = [
        "<!DOCTYPE html>", '<html lang="en"><head>',
        '<meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>", "</head>",
        '<body class="viz-root">',
        f"<h1>{_esc(title)}</h1>",
    ]
    if not records:
        parts.append('<p class="meta">No run records yet — run '
                     '<code>python -m repro perf record</code> first.</p>')
        parts.append("</body></html>")
        return "\n".join(parts)

    last = records[-1]
    machine = last.machine.get("name", "unknown machine")
    parts.append(
        f'<p class="meta">{len(records)} recorded runs · last: '
        f'<code>{_esc(last.run_id)}</code> at {_esc(last.created_at)} '
        f'(git <code>{_esc((last.git_sha or "n/a")[:12])}</code>, '
        f'source {_esc(last.source)}, modeled machine '
        f'{_esc(machine)})</p>')

    if report is not None:
        parts.append("<h2>Regression gate</h2>")
        parts.extend(_verdict_panel(report))

    metric_names = sorted(last.metrics)
    parts.append("<h2>Metric trajectories across runs</h2>")
    parts.extend(_trajectory_cards(records, metric_names))

    breakdown = last.meta.get("stage_breakdown") or {}
    if breakdown:
        parts.append("<h2>Per-timestep stage breakdown (Fig. 6)</h2>")
        parts.extend(_stage_breakdown_panel(breakdown))

    parts.append("<h2>SLO rules &amp; alerts</h2>")
    parts.extend(_slo_panel(last.meta.get("slo_rules") or [],
                            last.meta.get("alerts") or []))

    capacity = last.meta.get("capacity")
    if capacity:
        parts.append("<h2>Capacity ledger (staging memory &amp; NIC)</h2>")
        parts.extend(_capacity_panel(capacity))

    fault_metrics = [m for m in metric_names if m.startswith("faults.")]
    if fault_metrics:
        parts.append("<h2>Fault recovery (MTTR &amp; reassignments)</h2>")
        parts.extend(_trajectory_cards(records, fault_metrics))

    probe_series = last.meta.get("probe_series") or {}
    if probe_series:
        parts.append("<h2>Live probes (last run, DES clock)</h2>")
        parts.extend(_probe_cards(probe_series))

    parts.extend(_runs_table(records, metric_names))
    parts.append("<footer>generated by <code>python -m repro perf "
                 "report</code> — self-contained, no external assets"
                 "</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)


def _blame_stack_panel(diff: TraceDiff) -> list[str]:
    """Two stacked bars (run A over run B), each split into the five
    blame buckets on a shared linear scale — the visual answer to
    "where did the extra time go"."""
    width, bar_h, gap = 560, 18, 2
    label_w, value_w = 150, 90
    plot_w = width - label_w - value_w
    rows = [
        (diff.a_label, {k: v[0] for k, v in diff.blame_buckets.items()}),
        (diff.b_label, {k: v[1] for k, v in diff.blame_buckets.items()}),
    ]
    totals = {label: sum(bars.values()) for label, bars in rows}
    scale_max = max(totals.values(), default=0.0) or 1.0
    parts = ['<div class="panel">', '<div class="legend">']
    for bucket in BLAME_BUCKETS:
        parts.append(f'<span><span class="swatch" '
                     f'style="background:{_BUCKET_COLORS[bucket]}"></span>'
                     f'{_esc(bucket)}</span>')
    parts.append("</div>")
    svg_h = len(rows) * (bar_h + 10) + 4
    parts.append(f'<svg width="{width}" height="{svg_h}" '
                 f'viewBox="0 0 {width} {svg_h}" role="img" '
                 f'aria-label="blame bucket comparison">')
    y = 2.0
    for label, bars in rows:
        parts.append(f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
                     f'text-anchor="end" fill="var(--text-2)" '
                     f'font-size="12">{_esc(label)}</text>')
        x = float(label_w)
        for bucket in BLAME_BUCKETS:
            value = bars.get(bucket, 0.0)
            if value <= 0:
                continue
            w = max(plot_w * value / scale_max - gap, 1.0)
            title = f"{_esc(label)} — {_esc(bucket)}: {value:.4f} s"
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
                f'height="{bar_h}" rx="2" '
                f'fill="{_BUCKET_COLORS[bucket]}">'
                f'<title>{title}</title></rect>')
            x += w + gap
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h - 5}" '
                     f'fill="var(--text-1)" font-size="12">'
                     f'{totals[label]:.2f} s</text>')
        y += bar_h + 10
    parts.append("</svg></div>")
    return parts


def _diff_tables_panel(diff: TraceDiff, max_flows: int = 12) -> list[str]:
    parts = ['<div class="panel">']
    parts.append(f"<table><tr><th>blame bucket</th>"
                 f"<th class='num'>{_esc(diff.a_label)} (s)</th>"
                 f"<th class='num'>{_esc(diff.b_label)} (s)</th>"
                 f"<th class='num'>delta (s)</th>"
                 f"<th class='num'>share of Δmakespan</th></tr>")
    for bucket in BLAME_BUCKETS:
        a, b = diff.blame_buckets.get(bucket, (0.0, 0.0))
        delta = b - a
        cls = ("up" if delta > 1e-12 else "down" if delta < -1e-12 else "")
        share = (f"{100 * diff.blame_delta_share(bucket):.1f}%"
                 if diff.makespan_delta else "—")
        parts.append(
            f"<tr><td><span class='swatch' style='background:"
            f"{_BUCKET_COLORS[bucket]}'></span> {_esc(bucket)}</td>"
            f"<td class='num'>{_fmt(a)}</td><td class='num'>{_fmt(b)}</td>"
            f"<td class='num'><span class='delta {cls}'>{delta:+.4g}"
            f"</span></td><td class='num'>{share}</td></tr>")
    parts.append("</table>")
    if diff.flows:
        parts.append(f"<details><summary>Largest per-flow latency deltas "
                     f"({min(max_flows, len(diff.flows))} of "
                     f"{len(diff.flows)} aligned flows)</summary>"
                     f"<table><tr><th>flow</th>"
                     f"<th class='num'>{_esc(diff.a_label)} (s)</th>"
                     f"<th class='num'>{_esc(diff.b_label)} (s)</th>"
                     f"<th class='num'>delta (s)</th></tr>")
        for fd in diff.flows[:max_flows]:
            parts.append(f"<tr><td>{_esc(fd.key)}</td>"
                         f"<td class='num'>{_fmt(fd.latency_a)}</td>"
                         f"<td class='num'>{_fmt(fd.latency_b)}</td>"
                         f"<td class='num'>{fd.delta:+.4g}</td></tr>")
        parts.append("</table></details>")
    if diff.edge_totals:
        parts.append(f"<details><summary>Flow-edge totals</summary>"
                     f"<table><tr><th>edge kind</th>"
                     f"<th class='num'>{_esc(diff.a_label)} (s)</th>"
                     f"<th class='num'>{_esc(diff.b_label)} (s)</th>"
                     f"<th class='num'>delta (s)</th></tr>")
        for kind in sorted(diff.edge_totals):
            a, b = diff.edge_totals[kind]
            parts.append(f"<tr><td>{_esc(kind)}</td>"
                         f"<td class='num'>{_fmt(a)}</td>"
                         f"<td class='num'>{_fmt(b)}</td>"
                         f"<td class='num'>{b - a:+.4g}</td></tr>")
        parts.append("</table></details>")
    if diff.unmatched_a or diff.unmatched_b:
        parts.append(f'<div class="ok-line">unmatched flows: '
                     f'{diff.unmatched_a} only in {_esc(diff.a_label)}, '
                     f'{diff.unmatched_b} only in {_esc(diff.b_label)}'
                     f'</div>')
    parts.append("</div>")
    return parts


def render_trace_diff(diff: TraceDiff) -> str:
    """Render a :class:`~repro.obs.blame.TraceDiff` as a standalone HTML
    page in the dashboard's visual language (inline SVG, no JS)."""
    title = "repro — trace diff"
    dominant = diff.dominant_bucket()
    delta = diff.makespan_delta
    cls = "up" if delta > 1e-12 else "down" if delta < -1e-12 else ""
    parts: list[str] = [
        "<!DOCTYPE html>", '<html lang="en"><head>',
        '<meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>", "</head>",
        '<body class="viz-root">',
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">{_esc(diff.b_label)} vs {_esc(diff.a_label)} — '
        f'makespan {_fmt(diff.makespan_b)} s vs {_fmt(diff.makespan_a)} s '
        f'(<span class="delta {cls}">{delta:+.4g} s</span>)'
        + (f'; dominant bucket: <code>{_esc(dominant)}</code>'
           if dominant else "") + "</p>",
        "<h2>Blame buckets</h2>",
    ]
    parts.extend(_blame_stack_panel(diff))
    parts.append("<h2>Deltas</h2>")
    parts.extend(_diff_tables_panel(diff))
    parts.append("<footer>generated by <code>python -m repro replay "
                 "--diff</code> — self-contained, no external assets"
                 "</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_trace_diff(path: str | Path, diff: TraceDiff) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_trace_diff(diff), encoding="utf-8")
    return out


def write_dashboard(path: str | Path, records: list[RunRecord],
                    report: RegressionReport | None = None) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(records, report), encoding="utf-8")
    return out

"""Run reports: human-readable summaries of a framework run.

Summarises a :class:`~repro.core.framework.FrameworkResult` the way a
monitoring console would: per-analysis task counts and latencies, bytes
moved, bucket utilisation, steering decisions, and headline science
outputs (feature counts, statistics ranges).
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import FrameworkResult, HybridFramework
from repro.util import TextTable, fmt_bytes
from repro.util.gantt import Span, render_gantt, utilisation


def run_report(framework: HybridFramework, result: FrameworkResult) -> str:
    """Render the full text report for one run."""
    lines: list[str] = []
    steps = result.analysed_steps
    lines.append(f"hybrid run: {framework.solver.step_count} steps simulated, "
                 f"{len(steps)} analysed, {framework.decomp.n_ranks} ranks, "
                 f"{framework.n_buckets} staging buckets")

    # -- per-analysis task summary ------------------------------------------
    by_analysis: dict[str, list] = {}
    for task in result.task_results:
        by_analysis.setdefault(task.analysis, []).append(task)
    if by_analysis:
        t = TextTable(["analysis", "tasks", "bytes pulled", "mean latency",
                       "max queue wait"], title="\nin-transit activity")
        for name in sorted(by_analysis):
            tasks = by_analysis[name]
            t.add_row([
                name, len(tasks),
                fmt_bytes(sum(x.bytes_pulled for x in tasks)),
                f"{np.mean([x.total_latency for x in tasks]):.4g} s",
                f"{max(x.queue_wait for x in tasks):.4g} s",
            ])
        lines.append(t.render())

    # -- bucket occupancy ----------------------------------------------------
    spans = [Span(x.bucket, x.assign_time, x.finish_time, x.task_id)
             for x in result.task_results]
    if spans:
        makespan = max(s.end for s in spans)
        if makespan > 0:
            util = utilisation(spans, 0.0, makespan)
            lines.append("\nbucket occupancy (simulated time):")
            lines.append(render_gantt(spans, 60))
            lines.append("utilisation: " + ", ".join(
                f"{k}={v:.0%}" for k, v in sorted(util.items())))

    # -- science summary -----------------------------------------------------
    if result.statistics:
        last = max(result.statistics)
        stats = result.statistics[last]
        pieces = [f"{name}: mean {s.mean:.4g}, max {s.maximum:.4g}"
                  for name, s in stats.items()]
        lines.append(f"\nstatistics @ step {last}: " + "; ".join(pieces))
    if result.merge_trees:
        last = max(result.merge_trees)
        tree = result.merge_trees[last].reduced()
        lines.append(f"topology @ step {last}: {len(tree.leaves())} maxima, "
                     f"{len(tree.saddles())} saddles")
    if result.steering_events:
        lines.append(f"\nsteering: {len(result.steering_events)} rule firings")
        for ev in result.steering_events[:8]:
            lines.append(f"  step {ev.timestep}: {ev.rule}")
        if len(result.steering_events) > 8:
            lines.append(f"  ... and {len(result.steering_events) - 8} more")

    lines.append(f"\ntotal intermediate data through staging: "
                 f"{fmt_bytes(result.bytes_moved)}")
    return "\n".join(lines)

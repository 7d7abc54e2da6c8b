"""Byte-level pins of the two self-contained HTML pages.

The dashboard and the trace-diff page share one page shell and one
stacked-bar routine; these digests were recorded before the two pages
were folded onto them, so they pin every byte each page writes. Both
inputs are deterministic: two traced DES replays (stamped on the DES
clock) and the committed baseline store.
"""

import hashlib
from pathlib import Path

from repro.core import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.obs.blame import diff_traces
from repro.obs.perf import RunStore
from repro.obs.report import render_dashboard, render_trace_diff
from repro.obs.tracer import tracing

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks/results/baseline"


def _sha(page: str) -> str:
    return hashlib.sha256(page.encode("utf-8")).hexdigest()


def _traced_replay(n_buckets: int):
    exp = ScaledExperiment(ExperimentConfig.paper_4896())
    with tracing() as tracer:
        exp.run_schedule(ReplayPlan(n_steps=6, n_buckets=n_buckets))
    return tracer.trace


def test_trace_diff_page_is_pinned():
    page = render_trace_diff(diff_traces(_traced_replay(4),
                                         _traced_replay(2)))
    assert _sha(page) == (
        "4afb14e29a07f67155b7c78edbfef528299d090a0d9cc72086562cb62f066331")


def test_dashboard_of_the_committed_baseline_is_pinned():
    page = render_dashboard(RunStore(BASELINE).records())
    assert _sha(page) == (
        "670e42931b853839c0bca73e698c92f51e3abbc79696ce2dea18dcbec950bdab")

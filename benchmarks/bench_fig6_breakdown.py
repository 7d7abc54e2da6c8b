"""Fig. 6: the timing breakdown for simulation and all analytics at 4896
cores — in-situ, data movement, and in-transit components per task.

Regenerates the bar-chart data and asserts the figure's visual claims:
in-situ components are small fractions of the simulation bar; the hybrid
variants shift the bulk of their time into the asynchronous in-transit
component; topology's in-transit bar dwarfs everything else.

Run standalone:  python benchmarks/bench_fig6_breakdown.py
"""

import timeit

from repro.core import AnalyticsVariant, ExperimentConfig, ScaledExperiment
from repro.util import TextTable


def generate_fig6():
    return ScaledExperiment(ExperimentConfig.paper_4896()).breakdown()


def render(breakdown) -> str:
    series = breakdown.fig6_series()
    t = TextTable(["task", "in-situ (s)", "data movement (s)", "in-transit (s)"],
                  title="Fig. 6 (regenerated): per-timestep breakdown, 4896 cores")
    for task, bars in series.items():
        t.add_row([task, round(bars["in-situ"], 3),
                   round(bars["data movement"], 3),
                   round(bars["in-transit"], 3)])
    return t.render()


def test_fig6_series_complete(benchmark):
    b = benchmark(generate_fig6)
    print("\n" + render(b))
    series = b.fig6_series()
    assert set(series) == {"simulation"} | {v.value for v in AnalyticsVariant}


def test_fig6_insitu_components_small_vs_simulation():
    b = generate_fig6()
    sim = b.simulation_time
    for v in AnalyticsVariant:
        assert b.analytics[v.value].insitu_time < 0.2 * sim


def test_fig6_hybrid_work_is_offloaded():
    """For every hybrid variant, the off-node share (movement+in-transit)
    exceeds the on-node (in-situ) share except stats, whose learn stage is
    inherently on-node."""
    b = generate_fig6()
    viz = b.analytics[AnalyticsVariant.VIS_HYBRID.value]
    topo = b.analytics[AnalyticsVariant.TOPO_HYBRID.value]
    assert viz.intransit_time + viz.movement_time > 5 * viz.insitu_time
    assert topo.intransit_time > 10 * topo.insitu_time


def test_fig6_topology_dominates_intransit():
    b = generate_fig6()
    topo = b.analytics[AnalyticsVariant.TOPO_HYBRID.value].intransit_time
    others = [b.analytics[v.value].intransit_time
              for v in AnalyticsVariant if v is not AnalyticsVariant.TOPO_HYBRID]
    assert topo > 10 * max(others)
    # ... and exceeds the simulation step itself — only viable because the
    # computation is asynchronous and temporally multiplexed.
    assert topo > b.simulation_time


def test_tracer_disabled_overhead_under_5pct(bench_json_writer):
    """The disabled tracer must cost < 5% on the breakdown hot path.

    ``breakdown()`` carries the tracer's instrument site (a get_tracer()
    lookup + enabled check); ``_breakdown()`` is the identical body with
    no instrumentation. min-of-repeats timing keeps scheduler noise out.
    """
    from repro.obs import get_tracer

    exp = ScaledExperiment(ExperimentConfig.paper_4896())
    assert not get_tracer().enabled  # tracing must be off for this measure
    n, repeats = 80, 9
    baseline = min(timeit.repeat(exp._breakdown, number=n,
                                 repeat=repeats)) / n
    instrumented = min(timeit.repeat(exp.breakdown, number=n,
                                     repeat=repeats)) / n
    overhead = instrumented / baseline - 1.0
    bench_json_writer("fig6_tracer_overhead", {
        "name": "fig6_tracer_overhead",
        "baseline_s": baseline,
        "instrumented_s": instrumented,
        "overhead_fraction": overhead,
        "threshold": 0.05,
        "rounds": repeats,
        "iterations": n,
    })
    assert overhead < 0.05, (
        f"disabled-tracer overhead {overhead:.2%} exceeds 5% "
        f"({instrumented * 1e6:.1f}us vs {baseline * 1e6:.1f}us)")


if __name__ == "__main__":
    print(render(generate_fig6()))

"""The paper-fidelity registry: every EXPERIMENTS.md row, asserted once.

Each entry pairs one EXPERIMENTS.md table row or shape claim with the
model call that reproduces it, the paper's value (or, for a shape claim,
a predicate over the reproduced value) and one relative tolerance.
``tests/test_paper_fidelity.py`` asserts every entry in tier-1.

Rows are one of four kinds. A *fitted* row is the single published number
a calibration constant was fitted from, and names that constant; no
constant is named twice. A *model* row is a genuine model output: it must
move when some fitted constant is scaled by 10 %, or it is an echo. A
*first-principles* row follows from the geometry alone (98.5 GB). A
*shape* row is a claim checked by a predicate.

Run standalone:  python benchmarks/paper.py

It prints the registry table (id, section, paper, repro, tolerance,
relative error), one aggregate fit-error line and the sensitivity table
(each constant scaled by +-10 % and the model rows that move), and exits
1 if any entry fails.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import statistics
import sys
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import numpy as np

from repro.analysis.feature_stats import feature_statistics_hybrid
from repro.analysis.statistics import (
    StatisticsEngine,
    assess,
    derive,
    learn,
)
from repro.analysis.statistics.autocorrelation import (
    AutocorrelationLearner,
    derive_autocorrelation,
)
from repro.analysis.statistics.stages import test_mean_zscore
from repro.analysis.topology import (
    compute_merge_tree,
    segment_superlevel,
    track_features,
)
from repro.analysis.topology.distributed import (
    block_boundary_mask,
    compute_block_boundary_trees,
    cross_block_edges,
    glue_boundary_trees,
    global_id_array,
)
from repro.analysis.topology.local_tree import compute_boundary_tree
from repro.analysis.topology.stream_merge import StreamingGlue
from repro.analysis.topology.tracking import jaccard
from repro.analysis.visualization import (
    Camera,
    TransferFunction,
    downsample_decomposed,
    render_blocks_insitu,
    render_intransit,
)
from repro.analysis.visualization.volume_render import render_volume
from repro.core import (
    AnalyticsVariant as V,
    ExperimentConfig,
    HybridFramework,
    ReplayPlan,
    ScaledExperiment,
)
from repro.core.campaign import Campaign
from repro.core.steering import refine_cadence_on_topology
from repro.core.tradeoff import TradeoffModel
from repro.core.workload import HYBRID_VARIANTS
from repro.costmodel import CostModel, jaguar_cost_model
from repro.costmodel.jaguar import JAGUAR_RATES
from repro.des import Engine
from repro.io.aggregation import AggregationModel
from repro.machine import GeminiNetwork, TorusTopology
from repro.machine.gemini import Protocol
from repro.machine.specs import MachineSpec, jaguar_xk6
from repro.sim import LiftedFlameCase, S3DProxy, StructuredGrid3D
from repro.staging import DataSpaces, ServiceRing
from repro.transport import DartTransport
from repro.util import TextTable, image_rmse
from repro.util.units import GB
from repro.vmpi import BlockDecomposition3D, VirtualComm

FITTED, MODEL, FIRST_PRINCIPLES, SHAPE = (
    "fitted", "model", "first-principles", "shape")

#: Calibration constants not taken from any published number.
ASSUMED = {
    "staging.task_overhead": "DataSpaces bookkeeping per task, SMSG-scale",
}

#: Lustre bandwidths, fitted from Table I's 4896-core I/O rows.
LUSTRE = ("lustre.ost_read_bw", "lustre.ost_write_bw")

#: Every constant the sensitivity table scales.
PERTURBED = (*JAGUAR_RATES, *LUSTRE)


class Calibration:
    """The fitted constants model rows are computed from: the Jaguar cost
    model and machine, or a copy with one constant scaled."""

    def __init__(self, cost: CostModel | None = None,
                 machine: MachineSpec | None = None) -> None:
        self.cost = cost or jaguar_cost_model()
        self.machine = machine or jaguar_xk6()
        self._experiments: dict[int, ScaledExperiment] = {}

    def experiment(self, cores: int = 4896) -> ScaledExperiment:
        if cores not in self._experiments:
            config = {4896: ExperimentConfig.paper_4896,
                      9440: ExperimentConfig.paper_9440}[cores]()
            self._experiments[cores] = ScaledExperiment(
                config, self.machine, self.cost)
        return self._experiments[cores]

    def row(self, variant: V):
        """``variant``'s Table II row at 4896 cores."""
        return self.experiment().analytics_timing(variant)

    def scaled(self, constant: str, factor: float) -> "Calibration":
        """A copy with ``constant`` (a ``JAGUAR_RATES`` key or one of
        :data:`LUSTRE`) multiplied by ``factor``."""
        if constant in JAGUAR_RATES:
            return Calibration(self.cost.with_rate(
                constant, self.cost.rate(constant) * factor), self.machine)
        fs = self.machine.filesystem
        name = constant.removeprefix("lustre.")
        return Calibration(self.cost, dataclasses.replace(
            self.machine, filesystem=dataclasses.replace(
                fs, **{name: getattr(fs, name) * factor})))


DEFAULT = Calibration()


@dataclass(frozen=True)
class Entry:
    """One EXPERIMENTS.md row or shape claim."""

    id: str
    section: str
    claim: str
    produce: Callable[[Calibration], Any]
    #: The paper's number, or a predicate over the value for a shape claim.
    paper: float | Callable[[Any], bool]
    #: Relative tolerance of a numeric row.
    tol: float | None = None
    kind: str = MODEL
    #: The one constant a fitted row was fitted from.
    fitted_from: str | None = None
    #: The asserted value where it knowingly differs from the paper's
    #: (a Known deviation of EXPERIMENTS.md).
    expect: float | None = None

    @property
    def numeric(self) -> bool:
        return not callable(self.paper)

    def rel_error(self, value: float) -> float:
        return abs(value - self.paper) / abs(self.paper)

    def holds(self, value: Any) -> bool:
        if not self.numeric:
            return bool(self.paper(value))
        target = self.paper if self.expect is None else self.expect
        return abs(value - target) <= self.tol * abs(target)


REGISTRY: dict[str, Entry] = {}


def register(id: str, section: str, paper, tol: float | None = None,
             kind: str | None = None, fitted_from: str | None = None,
             expect: float | None = None, claim: str | None = None):
    """Decorator: file the decorated ``produce(cal)`` as entry ``id``;
    its docstring is the claim."""
    def deco(produce):
        if id in REGISTRY:
            raise ValueError(f"duplicate registry id {id!r}")
        REGISTRY[id] = Entry(
            id, section, claim or (produce.__doc__ or "").strip(), produce,
            paper, tol, kind or (SHAPE if callable(paper) else MODEL),
            fitted_from, expect)
        return produce
    return deco


def _close(expected, rel):
    """Predicate: every element of the value within ``rel`` of
    ``expected``'s."""
    return lambda v: all(abs(a - b) <= rel * abs(b)
                         for a, b in zip(v, expected, strict=True))


def _nonincreasing(xs) -> bool:
    return all(a >= b - 1e-9 for a, b in zip(xs, xs[1:]))


def blob_field(shape=(16, 14, 12), n_blobs=5, seed=0) -> np.ndarray:
    """Smooth multi-feature scalar field (combustion-like structure)."""
    rng = np.random.default_rng(seed)
    coords = np.stack(np.mgrid[[slice(0, s) for s in shape]]).astype(float)
    f = np.zeros(shape)
    for _ in range(n_blobs):
        c = [rng.uniform(1, s - 1) for s in shape]
        d2 = sum((coords[a] - c[a]) ** 2 for a in range(3))
        f += rng.uniform(0.5, 1.5) * np.exp(-d2 / rng.uniform(4, 10))
    return f


# -- Table I ------------------------------------------------------------------

for _cores, _alloc in ((4896, (4480, 160, 256, 4896)),
                       (9440, (8960, 256, 224, 9440))):
    register(f"table1.alloc.{_cores}", "Table I",
             lambda v, a=_alloc: v == a,
             claim=f"sim / DataSpaces / in-transit cores, and their sum, "
                   f"at {_cores}")(
        lambda cal, c=_cores: tuple(
            getattr(cal.experiment(c).config, a) for a in (
                "n_sim_cores", "n_service_cores", "n_intransit_cores",
                "n_cores")))

#: (quantity, breakdown attribute, constant the 4896 row was fitted from,
#:  (paper, tolerance) at 4896, at 9440)
_TABLE1 = (
    ("data_gb", "data_gb", None, (98.5, 0.01), (98.5, 0.01)),
    ("sim_s", "simulation_time", "s3d.step", (16.85, 1e-6), (8.42, 0.01)),
    ("read_s", "io_read_time", "lustre.ost_read_bw", (6.56, 0.02),
     (6.56, 0.02)),
    ("write_s", "io_write_time", "lustre.ost_write_bw", (3.28, 0.02),
     (3.28, 0.02)),
)
for _name, _attr, _key, *_columns in _TABLE1:
    for _cores, (_paper, _tol) in zip((4896, 9440), _columns):
        _fitted = _key is not None and _cores == 4896
        register(f"table1.{_name}.{_cores}", "Table I", _paper, tol=_tol,
                 kind=(FIRST_PRINCIPLES if _key is None
                       else FITTED if _fitted else MODEL),
                 fitted_from=_key if _fitted else None,
                 claim=f"Table I {_name} at {_cores} cores")(
            lambda cal, a=_attr, c=_cores: getattr(
                cal.experiment(c).breakdown(), a))


@register("table1.strong_scaling", "Table I",
          lambda v: abs(v - 2.0) <= 0.02)
def _strong_scaling(cal):
    """Perfect strong scaling: 2x cores halve the simulation step."""
    return (cal.experiment(4896).simulation_step_time()
            / cal.experiment(9440).simulation_step_time())


@register("table1.io_core_independent", "Table I", lambda v: v == (0.0, 0.0))
def _io_independent(cal):
    """I/O times are exactly core-count independent (OST-limited)."""
    a, b = cal.experiment(4896).breakdown(), cal.experiment(9440).breakdown()
    return (a.io_read_time - b.io_read_time, a.io_write_time - b.io_write_time)


# -- Table II -----------------------------------------------------------------

#: (id, variant, AnalyticsTiming attribute, paper, tolerance, kind,
#:  fitted constant)
_TABLE2 = (
    ("vis_insitu.insitu_s", V.VIS_INSITU, "insitu_time", 0.73, 1e-6,
     FITTED, "vis.render_insitu"),
    ("stats_insitu.insitu_s", V.STATS_INSITU, "insitu_time", 1.64, 1e-6,
     FITTED, "stats.learn"),
    ("vis_hybrid.insitu_s", V.VIS_HYBRID, "insitu_time", 0.08, 1e-6,
     FITTED, "vis.downsample"),
    ("vis_hybrid.move_s", V.VIS_HYBRID, "movement_time", 0.092, 1.0,
     MODEL, None),
    ("vis_hybrid.move_mb", V.VIS_HYBRID, "movement_mb", 49.19, 0.3,
     FIRST_PRINCIPLES, None),
    ("vis_hybrid.intransit_s", V.VIS_HYBRID, "intransit_time", 5.06, 0.25,
     MODEL, None),
    ("topo_hybrid.insitu_s", V.TOPO_HYBRID, "insitu_time", 2.72, 1e-6,
     FITTED, "topo.subtree"),
    ("topo_hybrid.move_mb", V.TOPO_HYBRID, "movement_mb", 87.02, 0.05,
     FITTED, "workload.TOPO_BOUNDARY_MAX_DENSITY"),
    ("topo_hybrid.move_s", V.TOPO_HYBRID, "movement_time", 2.06, 0.15,
     FITTED, "topo.pack_stream"),
    ("topo_hybrid.intransit_s", V.TOPO_HYBRID, "intransit_time", 119.81,
     0.05, MODEL, None),
    ("stats_hybrid.insitu_s", V.STATS_HYBRID, "insitu_time", 1.69, 1e-3,
     FITTED, "stats.pack_partial"),
    ("stats_hybrid.move_mb", V.STATS_HYBRID, "movement_mb", 13.30, 0.05,
     FITTED, "workload.STATS_WIRE_BYTES_PER_VAR"),
    ("stats_hybrid.move_s", V.STATS_HYBRID, "movement_time", 0.06, 1.0,
     MODEL, None),
    ("stats_hybrid.intransit_s", V.STATS_HYBRID, "intransit_time", 0.01,
     0.05, FITTED, "stats.derive"),
)
for _id, _variant, _attr, _paper, _tol, _kind, _key in _TABLE2:
    register(f"table2.{_id}", "Table II", _paper, tol=_tol, kind=_kind,
             fitted_from=_key, claim=f"{_variant.value}: {_attr}")(
        lambda cal, v=_variant, a=_attr: getattr(cal.row(v), a))


@register("table2.vis_hybrid.render_fit_s", "Table II", 5.06, tol=0.01,
          kind=FITTED, fitted_from="vis.render_intransit")
def _render_fit(cal):
    """The in-transit render rate, charged on the paper's 49.19 MB."""
    return cal.cost.time("vis.render_intransit", int(49.19e6 / 8))


@register("table2.topo_hybrid.glue_fit_s", "Table II", 119.81, tol=0.01,
          kind=FITTED, fitted_from="topo.stream_glue")
def _glue_fit(cal):
    """The streaming-glue rate, charged on the paper's 87.02 MB."""
    return cal.cost.time("topo.stream_glue", int(87.02e6 / 24))


@register("ratios.vis_insitu_frac", "Table II", 0.0433, tol=0.02)
def _vis_frac(cal):
    """In-situ visualization as a fraction of a simulation step."""
    return cal.experiment().breakdown().impact_fraction(V.VIS_INSITU.value)


@register("ratios.stats_insitu_frac", "Table II", 0.0973, tol=0.02)
def _stats_frac(cal):
    """In-situ statistics as a fraction of a simulation step."""
    return cal.experiment().breakdown().impact_fraction(V.STATS_INSITU.value)


@register("ratios.vis_hybrid_on_node_frac", "Table II", 0.01, tol=0.5)
def _vis_hybrid_frac(cal):
    """Hybrid visualization's on-node cost (down-sample + movement) is
    "about one percent" of a step."""
    row = cal.row(V.VIS_HYBRID)
    return ((row.insitu_time + row.movement_time)
            / cal.experiment().simulation_step_time())


@register("ratios.movement_below_raw", "Table II", lambda v: v >= 1000)
def _movement_below_raw(cal):
    """Every hybrid movement is >= 3 orders of magnitude below the raw
    state."""
    raw = cal.experiment().workload.checkpoint_bytes
    return min(raw / cal.row(v).movement_bytes for v in HYBRID_VARIANTS)


@register("replay.insitu_charge_s", "Table II", 4.49, tol=1e-6, expect=4.44)
def _insitu_charge(cal):
    """In-situ seconds the replay charges per analysed step for the three
    hybrid variants (Known deviation 4: Table II's rows sum to 4.49)."""
    return cal.experiment().expected_stage_totals(
        ReplayPlan(n_steps=1))["insitu"]


# -- Fig. 6 -------------------------------------------------------------------

@register("fig6.bars_are_table2", "Fig. 6", lambda v: v == (6, 0))
def _fig6_bars(cal):
    """The bars are the simulation step plus each Table II row: bar
    groups, bars that differ from their row."""
    b = cal.experiment().breakdown()
    rows = {"simulation": (b.simulation_time, 0.0, 0.0)} | {
        name: (a.insitu_time, a.movement_time, a.intransit_time)
        for name, a in b.analytics.items()}
    series = b.fig6_series()
    return len(series), sum(
        (bars["in-situ"], bars["data movement"], bars["in-transit"])
        != rows.get(name) for name, bars in series.items())


@register("fig6.insitu_bars_small", "Fig. 6", lambda v: v < 0.2)
def _fig6_small(cal):
    """Every in-situ bar is < 20 % of the simulation bar."""
    b = cal.experiment().breakdown()
    return max(b.impact_fraction(v.value) for v in V)


@register("fig6.hybrid_offloaded", "Fig. 6",
          lambda v: v[0] > 5 and v[1] > 10 and v[2] < 0.2)
def _fig6_offloaded(cal):
    """Hybrid variants shift their bulk off-node: viz off/on-node ratio,
    topology in-transit/in-situ ratio, hybrid/in-situ viz on-node ratio."""
    viz, topo = cal.row(V.VIS_HYBRID), cal.row(V.TOPO_HYBRID)
    return ((viz.intransit_time + viz.movement_time) / viz.insitu_time,
            topo.intransit_time / topo.insitu_time,
            viz.insitu_time / cal.row(V.VIS_INSITU).insitu_time)


@register("fig6.topology_dominates", "Fig. 6",
          lambda v: v[0] > 10 and v[1] > 1)
def _fig6_topology(cal):
    """Topology's in-transit bar is > 10x every other one and exceeds the
    simulation step itself."""
    topo = cal.row(V.TOPO_HYBRID).intransit_time
    others = max(cal.row(v).intransit_time for v in V
                 if v is not V.TOPO_HYBRID)
    return topo / others, topo / cal.experiment().simulation_step_time()


# -- Fig. 1: transient-feature tracking ----------------------------------------

@cache
def _fig1_segmentations(n_steps=12, threshold=1.6):
    grid = StructuredGrid3D((32, 16, 12), lengths=(4.0, 2.0, 1.5))
    solver = S3DProxy(LiftedFlameCase(grid, seed=11, kernel_rate=1.2,
                                      kernel_amplitude=2.0))
    segs = []
    for _ in range(n_steps):
        solver.step()
        segs.append(segment_superlevel(solver.fields["T"].copy(), threshold,
                                       min_persistence=0.15))
    return segs


@register("fig1.five_step_overlap", "Fig. 1", lambda v: v > 0.0)
def _fig1_overlap(cal):
    """A feature is tracked >= 5 consecutive steps and its 1st and 5th
    footprints overlap (Jaccard)."""
    segs = _fig1_segmentations()
    track = max((t for t in track_features(segs) if t.lifetime >= 5),
                key=lambda t: t.lifetime)
    return jaccard(segs[track.steps[0]], track.labels[0],
                   segs[track.steps[4]], track.labels[4])


@register("fig1.transient_tracks", "Fig. 1", lambda v: v > 0)
def _fig1_transient(cal):
    """Transient kernels exist: tracks that live shorter than the run."""
    segs = _fig1_segmentations()
    return sum(t.lifetime < len(segs) for t in track_features(segs))


@register("fig1.coarse_cadence_loses_tracks", "Fig. 1",
          lambda v: v[0] >= 1 and v[1] == 0)
def _fig1_coarse(cal):
    """Multi-step tracks at full cadence vs at every 8th step (standing in
    for stride 400): the coarse cadence keeps only single snapshots."""
    segs = _fig1_segmentations()
    coarse = list(range(0, len(segs), 8))
    multi = [sum(t.lifetime > 1 for t in tracks) for tracks in (
        track_features(segs),
        track_features([segs[i] for i in coarse], steps=coarse))]
    return tuple(multi)


# -- Fig. 2: the two visualization modes ---------------------------------------

@cache
def _fig2_scene():
    grid = StructuredGrid3D((24, 16, 12), lengths=(3.0, 2.0, 1.5))
    solver = S3DProxy(LiftedFlameCase(grid, seed=5, kernel_rate=1.5))
    solver.step(5)
    temperature = solver.fields["T"].copy()
    decomp = BlockDecomposition3D(temperature.shape, (2, 2, 2))
    tf = TransferFunction.hot(float(temperature.min()),
                              float(temperature.max()))
    cameras = {
        "overview": Camera(image_shape=(32, 32), azimuth_deg=30,
                           elevation_deg=20),
        "zoom": Camera(image_shape=(32, 32), azimuth_deg=30, elevation_deg=20,
                       zoom=2.5, center=(8.0, 8.0, 6.0)),
    }
    return temperature, decomp, tf, cameras


@cache
def _fig2_rows():
    """{(view, stride): (payload bytes, RMSE vs the in-situ render)}."""
    temperature, decomp, tf, cameras = _fig2_scene()
    rows = {}
    for view, cam in cameras.items():
        insitu = render_blocks_insitu(temperature, decomp, cam, tf)
        for stride in (2, 4):
            blocks = downsample_decomposed(temperature, decomp, stride)
            hybrid = render_intransit(blocks, temperature.shape, cam, tf)
            rows[view, stride] = (sum(b.nbytes for b in blocks),
                                  image_rmse(insitu, hybrid))
    return rows


for _view in ("overview", "zoom"):
    for _stride in (2, 4):
        register(f"fig2.{_view}.stride{_stride}", "Fig. 2",
                 lambda v: v < 0.25,
                 claim=f"{_view} hybrid render at stride {_stride}: RMSE vs "
                       "in-situ < 0.25")(
            lambda cal, k=(_view, _stride): _fig2_rows()[k][1])


@register("fig2.rmse_monotone", "Fig. 2", lambda v: all(v))
def _fig2_monotone(cal):
    """Image error grows with stride in both views."""
    rows = _fig2_rows()
    return tuple(rows[view, 2][1] <= rows[view, 4][1]
                 for view in ("overview", "zoom"))


@register("fig2.payload_cubic", "Fig. 2", lambda v: v <= 1.5)
def _fig2_payload(cal):
    """Moved bytes fall as stride^-3: payload x stride^3 / raw."""
    raw = _fig2_scene()[0].nbytes
    return max(payload * stride ** 3 / raw
               for (_view, stride), (payload, _) in _fig2_rows().items())


@register("fig2.insitu_matches_serial", "Fig. 2", lambda v: v < 1e-9)
def _fig2_exact(cal):
    """The block-composited in-situ image matches the serial reference
    renderer (exact visibility-order compositing)."""
    temperature, decomp, tf, cameras = _fig2_scene()
    cam = cameras["overview"]
    return image_rmse(render_blocks_insitu(temperature, decomp, cam, tf),
                      render_volume(temperature, cam, tf))


# -- Fig. 3: merge-tree semantics ----------------------------------------------

@cache
def _fig3():
    n = 48
    x, y = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n),
                       indexing="ij")
    f = (np.exp(-((x - 0.3) ** 2 + (y - 0.4) ** 2) / 0.02)
         + 0.75 * np.exp(-((x - 0.7) ** 2 + (y - 0.6) ** 2) / 0.02))
    f = f[..., None]  # a thin 3-D slab: the library's grids are 3-D
    tree, arc = compute_merge_tree(f)
    return f, tree, arc, tree.reduced()


@register("fig3.two_maxima_one_saddle", "Fig. 3", lambda v: v == (2, 1, True))
def _fig3_tree(cal):
    """Two contours appear at two maxima and merge at one saddle below
    both."""
    red = _fig3()[3]
    (saddle,) = red.saddles()
    below = all(red.parent[leaf] == saddle
                and red.value[saddle] < red.value[leaf]
                for leaf in red.leaves())
    return len(red.leaves()), len(red.saddles()), below


@register("fig3.isovalue_sweep", "Fig. 3", lambda v: v == (1, 2, 1))
def _fig3_sweep(cal):
    """Sweeping the isovalue down: 1 contour, then 2, then 1 after the
    saddle."""
    f, tree, arc, red = _fig3()
    hi, lo = sorted((red.value[n] for n in red.leaves()), reverse=True)
    saddle = red.value[red.saddles()[0]]
    return tuple(segment_superlevel(f, tau, tree=tree, vertex_arc=arc)
                 .n_features for tau in ((hi + lo) / 2, (lo + saddle) / 2,
                                         saddle / 2))


@register("fig3.branch_regions", "Fig. 3", lambda v: v == (2, 1, True))
def _fig3_regions(cal):
    """Above the saddle one region per branch, each labeled by its
    maximum; below it one."""
    f, tree, arc, red = _fig3()
    saddle = red.value[red.saddles()[0]]
    above = segment_superlevel(f, saddle + 0.02, tree=tree, vertex_arc=arc)
    below = segment_superlevel(f, saddle - 0.02, tree=tree, vertex_arc=arc)
    return (above.n_features, below.n_features,
            set(above.features) == set(red.leaves()))


# -- Fig. 4: statistics stages -------------------------------------------------

def _fig4_blocks(n_ranks=8, n=4000, seed=17):
    rng = np.random.default_rng(seed)
    return [{"T": rng.normal(2.0, 0.5, n), "H2": rng.gamma(2.0, 0.1, n)}
            for _ in range(n_ranks)]


@register("fig4.learn_only_communicates", "Fig. 4",
          lambda v: v == ({"allreduce"}, 2, 0))
def _fig4_insitu(cal):
    """In-situ: the only collectives are one allreduce per variable (2);
    derive, assess and test add none."""
    blocks = _fig4_blocks()
    comm = VirtualComm(len(blocks))
    result = StatisticsEngine(comm).run_insitu(blocks)
    ops = {r.op for r in comm.tracker.records}
    n = len(comm.tracker.records)
    stats = derive(learn(blocks[0]["T"]))
    assess(blocks[0]["T"], stats)
    test_mean_zscore(result.statistics["T"], 0.0)
    return ops, comm.tracker.count("allreduce"), len(comm.tracker.records) - n


@register("fig4.hybrid_no_collectives", "Fig. 4", lambda v: v == 0)
def _fig4_hybrid(cal):
    """Hybrid: zero collectives; partials move point-to-point."""
    blocks = _fig4_blocks()
    comm = VirtualComm(len(blocks))
    StatisticsEngine(comm).run_hybrid(blocks)
    return len(comm.tracker.records)


@register("fig4.deployments_agree", "Fig. 4",
          lambda v: v[0] <= 1e-10 and v[1] <= 1e-10 and v[2] < 5 < 20 < v[3])
def _fig4_agree(cal):
    """Both deployments give the serial statistics (relative variance
    error in-situ, hybrid), and the test stage keeps an honest null
    (|z| at mean 2.0) and rejects a false one (|z| at 2.5)."""
    blocks = _fig4_blocks()
    engine = StatisticsEngine(VirtualComm(len(blocks)))
    serial = derive(learn(np.concatenate([b["T"] for b in blocks])))
    insitu = engine.run_insitu(blocks).statistics["T"]
    hybrid = engine.run_hybrid(blocks).statistics["T"]
    return (abs(insitu.variance / serial.variance - 1),
            abs(hybrid.variance / serial.variance - 1),
            abs(test_mean_zscore(hybrid, 2.0)),
            abs(test_mean_zscore(hybrid, 2.5)))


# -- Fig. 5: architecture and messaging ----------------------------------------

@cache
def _fig5_replay(cal):
    exp = cal.experiment()
    return exp, exp.run_schedule(n_steps=6, n_buckets=4)


@register("fig5.fcfs", "Fig. 5", lambda v: v == 0)
def _fig5_fcfs(cal):
    """Assignments never reorder across arrival bursts (FCFS): count of
    later arrivals assigned before earlier ones."""
    results = sorted(_fig5_replay(cal)[1].results,
                     key=lambda r: (r.enqueue_time, r.task_id))
    return sum(a.enqueue_time < b.enqueue_time
               and a.assign_time > b.assign_time + 1e-9
               for a, b in zip(results, results[1:]))


@register("fig5.causal_order", "Fig. 5",
          lambda v: v[0] > 0 and v[1:] == (0, 0))
def _fig5_causal(cal):
    """enqueue <= assign <= pull-done <= finish for every task, and no
    assignment precedes its data-ready or bucket-ready event: assignment
    records, then the violations of each."""
    sched = _fig5_replay(cal)[1]
    return (len(sched.assignments),
            sum(not r.enqueue_time <= r.assign_time <= r.pull_done_time
                <= r.finish_time for r in sched.results),
            sum(min(a.assign_time - a.data_ready_time,
                    a.assign_time - a.bucket_ready_time) < 0
                for a in sched.assignments))


@register("fig5.full_scale_bytes", "Fig. 5", lambda v: v == 0)
def _fig5_bytes(cal):
    """Pulled byte counts equal the full-scale intermediate sizes."""
    exp, sched = _fig5_replay(cal)
    sizes = {v.value: exp.workload.movement_bytes_total(v) for v in V}
    return sum(r.bytes_pulled != sizes[r.analysis] for r in sched.results)


@register("fig5.all_buckets_used", "Fig. 5", lambda v: v == 4)
def _fig5_buckets(cal):
    """All four buckets participate."""
    return len({r.bucket for r in _fig5_replay(cal)[1].results})


@register("fig5.dht_balance", "Fig. 5", lambda v: v[0] < 3 and v[1] > 0)
def _fig5_dht(cal):
    """DHT hashing spreads 16k task RPCs over 160 service cores: max load
    over mean (< 3), min load (> 0)."""
    hist = ServiceRing(160).load_histogram(
        [f"topology/t{i}/#{i}" for i in range(16000)])
    return max(hist) / (16000 / 160), min(hist)


# -- §V temporal multiplexing --------------------------------------------------

_BUCKETS = (1, 2, 4, 8, 12, 16)


def _knee(cal) -> int:
    topo = cal.row(V.TOPO_HYBRID)
    return math.ceil((topo.movement_time + topo.intransit_time)
                     / cal.experiment().simulation_step_time())


@cache
def _bucket_sweep(cal):
    """{buckets: topology-only replay over 8 steps}."""
    return {n: cal.experiment().run_schedule(
        n_steps=8, n_buckets=n, analyses=(V.TOPO_HYBRID,))
        for n in _BUCKETS}


@register("multiplex.knee", "§V multiplexing", lambda v: v == 8)
def _multiplex_knee(cal):
    """ceil(topology task / simulation step) buckets are predicted."""
    return _knee(cal)


@register("multiplex.keeps_pace_from_knee", "§V multiplexing",
          lambda v: v == (8, 12, 16))
def _multiplex_pace(cal):
    """Of 1/2/4/8/12/16 buckets, exactly those at or above the knee keep
    pace with the simulation."""
    return tuple(n for n, sched in _bucket_sweep(cal).items()
                 if sched.keeps_pace())


@register("multiplex.queue_waits", "§V multiplexing",
          lambda v: _nonincreasing(v) and v[2] > 0 and v[3:] == (0, 0, 0))
def _multiplex_waits(cal):
    """Max queue wait (s) after 8 steps at 1/2/4/8/12/16 buckets: it
    grows without bound below the knee and is zero from 8 up."""
    return tuple(round(s.max_queue_wait(), 1)
                 for s in _bucket_sweep(cal).values())


@register("multiplex.one_bucket_backlog_grows", "§V multiplexing",
          lambda v: v > 1.5)
def _multiplex_backlog(cal):
    """With one bucket the backlog grows each step: max wait after 6
    steps over after 3."""
    exp = cal.experiment()
    short, long = (exp.run_schedule(n_steps=n, n_buckets=1,
                                    analyses=(V.TOPO_HYBRID,))
                   for n in (3, 6))
    return long.max_queue_wait() / short.max_queue_wait()


# -- §III sustainable analysis frequency ---------------------------------------

_FREQ_BUCKETS = (1, 2, 4, 8, 16, 32)


@register("frequency.intervals", "§III frequency",
          lambda v: v[0] == 8 and v[3] == 1 and _nonincreasing(v))
def _frequency_intervals(cal):
    """Fastest sustainable topology cadence at 1..32 buckets: 1 bucket
    every 8th step, 8 buckets every step."""
    exp = cal.experiment()
    return tuple(exp.min_sustainable_interval(n) for n in _FREQ_BUCKETS)


@register("frequency.des_cross_check", "§III frequency", lambda v: v == 0)
def _frequency_des(cal):
    """The closed-form interval agrees with the DES: the replay keeps pace
    at it, and one notch faster the queue grows (count of disagreements)."""
    exp = cal.experiment()
    bad = 0
    for n in (1, 2, 4, 8):
        interval = exp.min_sustainable_interval(n)
        ok = exp.run_schedule(n_steps=10, n_buckets=n,
                              analyses=(V.TOPO_HYBRID,),
                              analysis_interval=interval)
        bad += not ok.keeps_pace(slack=1.05)
        if interval > 1:
            fast = exp.run_schedule(n_steps=3 * interval, n_buckets=n,
                                    analyses=(V.TOPO_HYBRID,),
                                    analysis_interval=interval // 2)
            bad += not fast.max_queue_wait() > ok.max_queue_wait()
    return bad


@register("frequency.staging_memory", "§III frequency",
          lambda v: v[0] < 0.01 and v[1] <= 1.0)
def _frequency_memory(cal):
    """Cadence-1 in-flight intermediates (~1.1 GB at 8 buckets) as a share
    of 16 staging nodes x 32 GB; every-10th-step memory over cadence-1."""
    exp = cal.experiment()
    mem = exp.staging_memory_needed(1, n_buckets=8)
    return mem / (16 * 32 * GB), exp.staging_memory_needed(10, 8) / mem


# -- Scaling sweep beyond the paper --------------------------------------------

@cache
def _scaling():
    return Campaign(x_factors=(8, 16, 32, 64)).sweep()


#: EXPERIMENTS.md's table: sim cores -> (step s, buckets needed,
#: checkpoint write / step).
_SCALING_ROWS = {2240: (33.7, 4, 0.097), 4480: (16.85, 8, 0.195),
                 8960: (8.43, 18, 0.390), 17920: (4.21, 45, 0.779)}
for _cores, _row in _SCALING_ROWS.items():
    register(f"scaling.{_cores}", "Scaling sweep", _close(_row, 0.005),
             claim=f"{_cores} simulation cores: step, buckets needed, "
                   "checkpoint write share")(
        lambda cal, c=_cores: next(
            (p.simulation_time, p.buckets_needed, p.io_fraction)
            for p in _scaling() if p.n_sim_cores == c))


@register("scaling.trends", "Scaling sweep",
          lambda v: v[0] < 0.01 and v[1] and v[2] >= 3.5 and v[3] < 1.5
          and v[4] > 3)
def _scaling_trends(cal):
    """Strong scaling stays ideal (max |efficiency - 1|); the serial
    stage's bucket demand and the checkpoint share grow monotonically
    (both monotone; demand last/first); the in-situ share stays flat
    (max/min); the checkpoint share grows (last/first)."""
    points = _scaling()
    demand = Campaign.serial_stage_pressure(points)
    insitu = [p.insitu_fraction for p in points]
    io = [p.io_fraction for p in points]
    return (max(abs(e - 1) for e in Campaign.strong_scaling_efficiency(points)),
            demand == sorted(demand) and io == sorted(io),
            demand[-1] / demand[0], max(insitu) / min(insitu),
            io[-1] / io[0])


# -- Ablations of design choices -----------------------------------------------

_SIZES = (64, 1024, 4096, 16384, 65536, 1 << 20, 16 << 20)


@register("ablation.protocol.lower_envelope", "Ablations", lambda v: v == 0)
def _protocol_envelope(cal):
    """Adaptive SMSG/BTE selection tracks the lower envelope away from
    the crossover, SMSG wins the smallest and BTE the largest size (count
    of violations)."""
    net = cal.machine.network
    cross = net.crossover_bytes()
    bad = 0
    for n in _SIZES:
        smsg, bte = (net.transfer_time(n, p) for p in Protocol)
        if n < 0.5 * cross or n > 2 * cross:
            bad += net.transfer_time(n) > min(smsg, bte) * 1.01
    small, large = _SIZES[0], _SIZES[-1]
    bad += net.transfer_time(small) != net.transfer_time(small, Protocol.SMSG)
    bad += net.transfer_time(large) != net.transfer_time(large, Protocol.BTE)
    return bad


@register("ablation.protocol.misset_threshold", "Ablations", lambda v: v > 3)
def _protocol_misset(cal):
    """A 1 MB message under a never-BTE threshold pays > 3x."""
    bad = GeminiNetwork(smsg_max_bytes=16 << 20)
    return bad.transfer_time(1 << 20) / cal.machine.network.transfer_time(
        1 << 20)


def _queue(arrivals, services, pull: bool, n_buckets=8):
    """Mean wait and makespan: one FCFS queue pulled by the earliest-free
    bucket, or task i pushed to bucket i % n."""
    free = [0.0] * n_buckets
    waits, finish = [], 0.0
    for i, (a, s) in enumerate(zip(arrivals, services)):
        t_free = heapq.heappop(free) if pull else free[i % n_buckets]
        start = max(a, t_free)
        if pull:
            heapq.heappush(free, start + s)
        else:
            free[i % n_buckets] = start + s
        waits.append(start - a)
        finish = max(finish, start + s)
    return float(np.mean(waits)), finish


@cache
def _scheduler_sweep():
    """{sigma: (pull (wait, makespan), push (wait, makespan))} for 200
    lognormal tasks at ~80 % utilisation of 8 buckets."""
    rows = {}
    for sigma in (0.0, 0.5, 1.0, 1.5):
        rng = np.random.default_rng(23)
        arrivals = np.repeat(np.arange(25.0), 8)
        services = 6.4 * rng.lognormal(-sigma ** 2 / 2, sigma, size=200)
        rows[sigma] = (_queue(arrivals, services, True),
                       _queue(arrivals, services, False))
    return rows


@register("ablation.scheduler.pull_beats_push", "Ablations",
          lambda v: v[0] > 0 and min(v[1:3]) > 0.15 and v[3] > v[4])
def _scheduler_gain(cal):
    """Pull-FCFS vs round-robin push under data-dependent durations: the
    share of mean queue wait pull cuts at sigma 1 and 1.5, the share of
    makespan it cuts at 1.5, and the wait it saves at sigma 1.5 vs 0
    (the gain grows with heterogeneity)."""
    rows = _scheduler_sweep()
    (p1, q1), (p15, q15) = rows[1.0], rows[1.5]
    return (1 - p1[0] / q1[0], 1 - p15[0] / q15[0], 1 - p15[1] / q15[1],
            q15[0] - p15[0], rows[0.0][1][0] - rows[0.0][0][0])


@register("ablation.scheduler.homogeneous_tie", "Ablations",
          lambda v: v <= 1e-9)
def _scheduler_tie(cal):
    """Identical task durations: pull and push tie exactly."""
    pull, push = _scheduler_sweep()[0.0]
    return abs(pull[0] - push[0])


@cache
def _downsample_sweep(shape=(32, 32, 24)):
    """{stride: (moved bytes, raw bytes, RMSE vs the in-situ render)}."""
    field = blob_field(shape, n_blobs=8, seed=9)
    decomp = BlockDecomposition3D(shape, (2, 2, 2))
    tf = TransferFunction.hot(float(field.min()), float(field.max()))
    cam = Camera(image_shape=(24, 24), azimuth_deg=30, elevation_deg=20)
    reference = render_blocks_insitu(field, decomp, cam, tf)
    rows = {}
    for stride in (1, 2, 4, 8):
        blocks = downsample_decomposed(field, decomp, stride)
        rows[stride] = (sum(b.nbytes for b in blocks), field.nbytes,
                        image_rmse(reference,
                                   render_intransit(blocks, shape, cam, tf)))
    return rows


@register("ablation.downsample.bytes_cubic", "Ablations",
          lambda v: v <= 0.35)
def _downsample_bytes(cal):
    """Moved bytes fall cubically in the stride: max relative deviation
    from raw / stride^3."""
    return max(abs(moved * s ** 3 / raw - 1)
               for s, (moved, raw, _) in _downsample_sweep().items())


@register("ablation.downsample.rmse_graceful", "Ablations",
          lambda v: _nonincreasing(v[::-1]) and v[-1] < 0.1)
def _downsample_rmse(cal):
    """Image RMSE grows gracefully from stride 1 to 8."""
    return tuple(rmse for _, _, rmse in _downsample_sweep().values())


@register("ablation.downsample.stride8_reduction", "Ablations",
          lambda v: v > 200)
def _downsample_stride8(cal):
    """Stride 8 moves > 200x less than the raw block (~512x before block
    rounding)."""
    moved, raw, _ = _downsample_sweep()[8]
    return raw / moved


_IO_DATA, _IO_RANKS = int(98.5 * GB), 4480


def _aggregation(cal, **kw) -> AggregationModel:
    return AggregationModel(cal.machine.filesystem, cal.machine.network, **kw)


@register("ablation.io.fpp_write_s", "Ablations", 3.28, tol=0.05)
def _io_fpp(cal):
    """File-per-process writes 98.5 GB within 5 % of Table I's 3.28 s."""
    return _aggregation(cal).write_time(_IO_DATA, _IO_RANKS, _IO_RANKS)


@register("ablation.io.fpp_near_best", "Ablations",
          lambda v: v[0] <= 1.25 and v[1] > 10 and v[2] >= 1 - 1e-12)
def _io_near_best(cal):
    """At the paper's scale file-per-process is within 25 % of the best
    N-to-M point and a single aggregator is > 10x slower (both over
    file-per-process); no probed count beats the best (min over best)."""
    m = _aggregation(cal)
    best = m.best_aggregator_count(_IO_DATA, _IO_RANKS)
    times = {k: m.write_time(_IO_DATA, _IO_RANKS, k)
             for k in (1, 8, 64, 512, _IO_RANKS // 4, _IO_RANKS, best)}
    fpp = times[_IO_RANKS]
    return (fpp / times[best], times[1] / fpp,
            min(times.values()) / times[best])


@register("ablation.io.metadata_wall", "Ablations",
          lambda v: v[0] < 1 and v[1] < 10 * _IO_RANKS)
def _io_metadata(cal):
    """A stressed metadata server at 10x scale flips the optimum to
    moderate aggregation: best over file-per-process time, best count."""
    m = _aggregation(cal, metadata_ops_per_s=2000.0)
    n = 10 * _IO_RANKS
    best = m.best_aggregator_count(_IO_DATA, n)
    return (m.write_time(_IO_DATA, n, best) / m.write_time(_IO_DATA, n, n),
            best)


@register("ablation.imbalance.stretch", "Ablations",
          lambda v: v[0] == 1.0 and _nonincreasing(v[::-1])
          and v[1] < 1.6 and v[-1] > 3)
def _imbalance(cal):
    """Slowest-of-4480-ranks stretch of a lognormal in-situ stage at
    sigma 0 / 0.1 / 0.25 / 0.5 / 1 (mean 1 per rank, 200 trials)."""
    out = []
    for sigma in (0.0, 0.1, 0.25, 0.5, 1.0):
        rng = np.random.default_rng(12)
        draws = rng.lognormal(-sigma * sigma / 2, sigma, size=(200, 4480))
        out.append(float(draws.max(axis=1).mean()))
    return tuple(out)


@register("ablation.placement.hops", "Ablations",
          lambda v: v[0] < v[1] <= v[3] and v[2] < v[1] and v[4] < 50)
def _placement(cal):
    """Mean sim -> staging hops on the Jaguar torus for adjacent, far and
    wraparound-end placements, the torus diameter, and the worst hop
    overhead (%) on a 19.5 KB subtree pull."""
    torus = TorusTopology.jaguar()
    net = cal.machine.network
    sim_nodes = list(range(280))  # 4480 ranks / 16 cores
    dims = torus.dims
    placed = (
        [280 + i for i in range(16)],
        [torus.node_at((dims[0] // 2 + i, dims[1] // 2, dims[2] // 2))
         for i in range(16)],
        [torus.n_nodes - 1 - i for i in range(16)],
    )
    hops = []
    for staging in placed:
        rng = np.random.default_rng(4)
        hops.append(sum(torus.hops(int(rng.choice(sim_nodes)),
                                   int(rng.choice(staging)))
                        for _ in range(400)) / 400)
    worst = net.transfer_time(19_520, hops=round(max(hops)))
    return (*hops, torus.diameter,
            100 * (worst / net.transfer_time(19_520) - 1))


@cache
def _subtree_reductions():
    """Raw block bytes over its boundary-tree bytes for (n/2) x n x n
    blocks, n = 8 .. 32."""
    out = []
    for n in (8, 12, 16, 24, 32):
        shape = (n, n, n)
        field = blob_field(shape, n_blobs=max(3, n // 4), seed=n)
        block = BlockDecomposition3D(shape, (2, 1, 1)).block(0)
        bt = compute_boundary_tree(field[block.slices],
                                   global_id_array(shape)[block.slices],
                                   block_boundary_mask(block, shape))
        out.append(field[block.slices].nbytes / bt.nbytes)
    return tuple(out)


@register("ablation.topology.reduction_grows", "Ablations",
          lambda v: v[-1] > v[0] and v[-1] > 3)
def _topology_reduction(cal):
    """Subtree size scales with block area, raw data with volume: the
    reduction grows with the block."""
    return _subtree_reductions()


@register("ablation.topology.paper_scale_reduction", "Ablations",
          lambda v: v > max(_subtree_reductions()))
def _topology_paper_scale(cal):
    """At the paper's 210k-cell blocks the workload model's reduction of
    the analysed variable exceeds every laptop-scale block's."""
    w = cal.experiment().workload
    return (w.block_cells * w.itemsize
            / w.movement_bytes_per_rank(V.TOPO_HYBRID))


@register("ablation.topology.ghosts_required", "Ablations",
          lambda v: v == (True, False))
def _topology_ghosts(cal):
    """Gluing boundary trees reproduces the global tree; keeping only each
    block's own merge-tree vertices (no boundary set) breaks it."""
    shape = (12, 10, 8)
    field = blob_field(shape, 6, seed=77)
    decomp = BlockDecomposition3D(shape, (2, 2, 1))
    reference = compute_merge_tree(field)[0].reduced().signature()
    glued = glue_boundary_trees(compute_block_boundary_trees(field, decomp),
                                cross_block_edges(decomp))
    ids = global_id_array(shape)
    broken = StreamingGlue()
    declared = set()
    for block in decomp.blocks():
        local, _ = compute_merge_tree(field[block.slices],
                                      id_map=ids[block.slices])
        for vid, val in local.value.items():
            if vid not in declared:
                declared.add(vid)
                broken.add_vertex(vid, val)
        for child, parent in local.arcs():
            broken.add_edge(child, parent)
    for u, v in cross_block_edges(decomp):
        if u in declared and v in declared:
            broken.add_edge(u, v)
    return (glued.reduced().signature() == reference,
            broken.finalize().reduced().signature() == reference)


@register("ablation.topology.glue_memory", "Ablations",
          lambda v: v[0] and v[1] <= 1 and v[2] < 1)
def _topology_glue_memory(cal):
    """The streaming glue finalizes every vertex and its live-vertex
    high-water mark stays within the reduced input (over input nodes,
    over grid cells)."""
    shape = (20, 16, 12)
    field = blob_field(shape, 8, seed=13)
    decomp = BlockDecomposition3D(shape, (2, 2, 2))
    bts = compute_block_boundary_trees(field, decomp)
    glue = StreamingGlue()
    glue_boundary_trees(bts, cross_block_edges(decomp), glue)
    return (glue.all_finalized(),
            glue.peak_live_vertices / sum(len(bt.nodes) for bt in bts),
            glue.peak_live_vertices / field.size)


# -- §VI extensions ------------------------------------------------------------

_PAYLOADS, _PAYLOAD_BYTES = 16, 32 << 20


def _streaming_task(stream: bool, compute_s: float) -> float:
    engine = Engine()
    transport = DartTransport(engine)
    ds = DataSpaces(engine, transport,
                    cost_model=CostModel("m", {"buffered.op": compute_s}))
    ds.spawn_buckets(["b0"])
    descs = [transport.register(f"sim-{i}", None, nbytes=_PAYLOAD_BYTES)
             for i in range(_PAYLOADS)]
    if stream:
        ds.submit_grouped_result("x", 0, descs,
                                 stream_compute=lambda s, p: s,
                                 stream_cost_per_payload=compute_s)
    else:
        ds.submit_grouped_result("x", 0, descs, cost_op="buffered.op",
                                 cost_elements=_PAYLOADS)
    ds.shutdown_buckets()
    engine.run()
    return ds.all_results()[0].finish_time


@cache
def _streaming_sweep():
    """(wire s per payload, {compute s: (buffered, streaming) task s})."""
    wire = DartTransport(Engine()).network.transfer_time(_PAYLOAD_BYTES)
    return wire, {c: (_streaming_task(False, c), _streaming_task(True, c))
                  for c in (1e-3, 2.5e-3, 5e-3, 10e-3, 20e-3)}


@register("ext.streaming.peak_speedup", "§VI extensions",
          lambda v: v[0] > 1.6 and v[1] >= 1 / 1.001)
def _streaming_peak(cal):
    """Streaming's speedup over buffered peaks near 2x where compute ~
    wire time, and it is never slower (peak, least speedup)."""
    wire, rows = _streaming_sweep()
    b, s = rows[min(rows, key=lambda c: abs(c - wire))]
    return b / s, min(b / s for b, s in rows.values())


@register("ext.streaming.max_component", "§VI extensions", lambda v: v == 0)
def _streaming_bound(cal):
    """Streaming task time ~ max(total pull, total compute) + one stage
    (count of rows outside that band)."""
    wire, rows = _streaming_sweep()
    bad = 0
    for compute, (_, streaming) in rows.items():
        lower = _PAYLOADS * max(wire, compute)
        bad += not lower * 0.99 <= streaming <= (
            lower + max(wire, compute) + 0.01)
    return bad


@register("ext.autocorrelation.ar1", "§VI extensions",
          lambda v: v[0] <= 0.15 and v[1] < v[2] / 10)
def _autocorrelation(cal):
    """rho(k) of an AR(1) series (rho = 0.8) recovered at lags 1-4 from
    hybrid partials: max |rho(k) - 0.8^k|, wire bytes, raw series bytes."""
    shape, n_steps = (8, 6, 4), 50
    rng = np.random.default_rng(6)
    series = [rng.normal(size=shape)]
    for _ in range(n_steps - 1):
        series.append(0.8 * series[-1]
                      + np.sqrt(1 - 0.64) * rng.normal(size=shape))
    decomp = BlockDecomposition3D(shape, (2, 1, 1))
    learners = [AutocorrelationLearner(4) for _ in range(decomp.n_ranks)]
    for step in series:
        for learner, b in zip(learners, decomp.blocks()):
            learner.observe(step[b.slices])
    packed = [learner.pack() for learner in learners]
    rho = derive_autocorrelation(packed, 4)
    return (max(abs(v - 0.8 ** k) for k, v in rho.items()),
            sum(p.nbytes for p in packed), n_steps * series[0].nbytes)


@register("ext.feature_statistics.exact", "§VI extensions",
          lambda v: v[0] and v[1] > 1 and v[2] <= 1e-12)
def _feature_statistics(cal):
    """Per-feature conditional means match masked-numpy references, with
    features split across ranks: every feature has statistics, feature
    count, max relative error of the means."""
    field = blob_field((20, 16, 12), n_blobs=4, seed=31)
    seg = segment_superlevel(field, 0.4)
    stats = feature_statistics_hybrid(
        seg, {"f": field}, BlockDecomposition3D(field.shape, (2, 2, 2)))
    return set(stats) == set(seg.features), len(stats), max(
        abs(fs.statistics["f"].mean / field[seg.labels == fid].mean() - 1)
        for fid, fs in stats.items())


@register("ext.steering.refines_cadence", "§VI extensions",
          lambda v: v[0] > 0 and v[1] == 1 and v[2] > 2)
def _steering(cal):
    """The cadence-refinement rule fires on the first multi-feature merge
    tree and drops the interval from 3 to 1: firings, final interval,
    analysed steps of 6."""
    grid = StructuredGrid3D((12, 10, 8))
    fw = HybridFramework(
        LiftedFlameCase(grid, seed=44, kernel_rate=2.0),
        BlockDecomposition3D((12, 10, 8), (2, 1, 1)), analyses=("topology",),
        n_buckets=2,
        steering=(refine_cadence_on_topology(n_maxima=1, new_interval=1),))
    result = fw.run(6, analysis_interval=3)
    return (len(result.steering_events), fw.analysis_interval,
            len(result.analysed_steps))


@cache
def _tradeoff(cal):
    model = TradeoffModel(cal.experiment())
    run_steps = 2000
    return model, {
        "post@400": model.postprocessing(400, run_steps),
        "post@10": model.postprocessing(10, run_steps),
        "post@1": model.postprocessing(1, run_steps),
        "insitu@1": model.fully_insitu(1),
        "hybrid@1": model.concurrent_hybrid(1),
        "hybrid@10": model.concurrent_hybrid(10),
    }


@register("ext.tradeoff.time_to_insight", "§VI extensions",
          lambda v: v[0] > 100 and v[1] < 10 and v[2] > 1000)
def _tradeoff_insight(cal):
    """Time to insight improves > 100x over stride-400 post-processing
    (2.1 min vs 4.7 h): ratio, and each in simulation steps."""
    model, o = _tradeoff(cal)
    sim = model.breakdown.simulation_time
    hybrid, post = o["hybrid@1"].time_to_insight, o["post@400"].time_to_insight
    return post / hybrid, hybrid / sim, post / sim


@register("ext.tradeoff.storage_and_io", "§VI extensions",
          lambda v: v[0] > 1000 and v[1] < 2 and v[2] > 50)
def _tradeoff_storage(cal):
    """Per analysed step the hybrid persists ~1.4 MB vs 98.5 GB (ratio);
    at the same every-10th cadence its on-node cost is comparable to
    checkpointing (ratio) while insight arrives > 50x sooner."""
    _, o = _tradeoff(cal)
    h10, p10 = o["hybrid@10"], o["post@10"]
    return (o["post@400"].storage_bytes / o["hybrid@1"].storage_bytes,
            h10.critical_path_per_step / p10.critical_path_per_step,
            p10.time_to_insight / h10.time_to_insight)


@register("ext.tradeoff.slowdowns", "§VI extensions",
          lambda v: v[0] > 300 and v[1] < min(30, v[0] / 20) and v[2] > 15)
def _tradeoff_slowdown(cal):
    """Simulation slowdown (%) at every step: fully in-situ topology
    (775 %), the hybrid (27 %), post-processing's checkpoint (19 %)."""
    _, o = _tradeoff(cal)
    return tuple(o[k].slowdown_percent
                 for k in ("insitu@1", "hybrid@1", "post@1"))


@register("ext.tradeoff.sustainable", "§VI extensions",
          lambda v: v == (True, False, True))
def _tradeoff_sustainable(cal):
    """Stride-1 hybrid is sustainable on the paper's 256 in-transit cores;
    2 buckets cannot sustain stride 1 but can stride 10."""
    model, o = _tradeoff(cal)
    tight = TradeoffModel(cal.experiment(), n_buckets=2)
    return (model.sustainable(o["hybrid@1"]),
            tight.sustainable(tight.concurrent_hybrid(1)),
            tight.sustainable(tight.concurrent_hybrid(10)))


# -- the checks on the registry itself -----------------------------------------

def evaluate(entry: Entry):
    """``(value, holds)`` of ``entry`` under the Jaguar calibration."""
    value = entry.produce(DEFAULT)
    return value, entry.holds(value)


def fitted_constants() -> dict[str, str]:
    """constant -> the id of the one fitted row that names it."""
    out: dict[str, str] = {}
    for e in REGISTRY.values():
        if e.kind == FITTED:
            if e.fitted_from in out:
                raise ValueError(f"{e.fitted_from} fitted twice: "
                                 f"{out[e.fitted_from]}, {e.id}")
            out[e.fitted_from] = e.id
    return out


def sensitivity() -> dict[str, dict[str, float]]:
    """constant -> {fitted or model row id: relative change at +10 %}, for
    the rows that move when the constant is scaled by +-10 %."""
    rows = [e for e in REGISTRY.values() if e.kind in (FITTED, MODEL)]
    base = {e.id: e.produce(DEFAULT) for e in rows}
    out: dict[str, dict[str, float]] = {}
    for constant in PERTURBED:
        up = DEFAULT.scaled(constant, 1.1)
        down = DEFAULT.scaled(constant, 0.9)
        out[constant] = {}
        for e in rows:
            high = e.produce(up)
            if high != base[e.id] or e.produce(down) != base[e.id]:
                out[constant][e.id] = high / base[e.id] - 1
    return out


def unmoved_model_rows(table: dict[str, dict[str, float]]) -> list[str]:
    """Model rows no constant moves: echoes, not outputs."""
    moved = {rid for rows in table.values() for rid in rows}
    return [e.id for e in REGISTRY.values()
            if e.kind == MODEL and e.id not in moved]


# -- printing ------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main() -> int:
    table = TextTable(["id", "section", "paper", "repro", "tolerance",
                       "rel. error"], title="Paper fidelity registry")
    errors = {FITTED: [], MODEL: []}
    failed = []
    for e in REGISTRY.values():
        value, ok = evaluate(e)
        if not ok:
            failed.append(e.id)
        if e.numeric:
            err = e.rel_error(value)
            if e.kind in errors:
                errors[e.kind].append((err, e.id))
            paper = f"{e.paper:g}" + ("*" if e.kind == FITTED else "")
            tol = f"{e.tol:g}" + (f" of {e.expect:g}"
                                  if e.expect is not None else "")
            status = f"{err:.2%}"
        else:
            paper, tol, status = "shape", "-", "holds"
        table.add_row([e.id, e.section, paper, _fmt(value), tol,
                       status if ok else "FAIL " + status])
    print(table.render())
    model_errs, fitted_errs = errors[MODEL], errors[FITTED]
    worst = max(model_errs)
    print(f"\naggregate fit error: model rows mean |rel. error| "
          f"{statistics.mean(e for e, _ in model_errs):.1%} over "
          f"{len(model_errs)} (max {worst[0]:.1%}, {worst[1]}); fitted rows "
          f"{statistics.mean(e for e, _ in fitted_errs):.2%} over "
          f"{len(fitted_errs)}; {len(REGISTRY) - len(failed)}/"
          f"{len(REGISTRY)} entries hold")

    fitted = fitted_constants()
    moves = sensitivity()
    sens = TextTable(["constant (x1.1)", "fitted row", "model rows moved"],
                     title="\nSensitivity: each constant scaled by +-10 %")
    for constant, rows in moves.items():
        moved = [f"{rid} {change:+.1%}" for rid, change in rows.items()
                 if REGISTRY[rid].kind == MODEL]
        sens.add_row([constant, fitted.get(constant) or
                      f"assumed: {ASSUMED[constant]}",
                      "; ".join(moved) or "-"])
    print(sens.render())
    unmoved = unmoved_model_rows(moves)
    if unmoved:
        print(f"model rows no constant moves: {unmoved}")
    if failed:
        print(f"FAILED: {failed}")
    return 1 if failed or unmoved else 0


if __name__ == "__main__":
    sys.exit(main())

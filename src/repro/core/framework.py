"""The functional hybrid pipeline: real simulation, real analytics, real
data movement through the staging machinery — at laptop scale.

``HybridFramework`` is the public high-level API a downstream user drives
(and what the examples use): configure a lifted-flame case and a
decomposition, choose analyses, call :meth:`run`. Per analysed timestep:

* every rank runs its in-situ stage on its own block (statistics learn,
  merge-tree boundary tree, down-sampling);
* intermediate results are registered with DART and a grouped in-transit
  task is pushed through the DataSpaces scheduler;
* a staging bucket pulls the payloads and executes the in-transit stage
  (serial derive / streaming glue / LUT render) — the *real* computation,
  returning real models, trees and images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.statistics.engine import StatisticsEngine
from repro.analysis.statistics.stages import DerivedStatistics
from repro.analysis.topology.distributed import (
    block_boundary_mask,
    cross_block_edges,
    glue_boundary_trees,
    global_id_array,
)
from repro.analysis.topology.local_tree import (
    compute_boundary_tree,  # noqa: F401 - benchmarks/e2e/spans.py wraps it here
    compute_boundary_trees,
)
from repro.analysis.topology.merge_tree import MergeTree
from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.downsample import (
    downsample_block,
    render_intransit,
)
from repro.analysis.visualization.transfer_function import TransferFunction
from repro.des import Engine
from repro.obs.tracer import Tracer, get_tracer, tracing
from repro.sim.grid import StructuredGrid3D
from repro.sim.lifted_flame import LiftedFlameCase
from repro.sim.s3d import DecomposedS3D
from repro.staging.dataspaces import DataSpaces
from repro.staging.descriptors import TaskResult
from repro.transport.dart import DartTransport
from repro.vmpi.comm import VirtualComm
from repro.vmpi.decomp import BlockDecomposition3D


@dataclass
class FrameworkResult:
    """Everything the pipeline produced, keyed by timestep."""

    statistics: dict[int, dict[str, DerivedStatistics]] = field(default_factory=dict)
    merge_trees: dict[int, MergeTree] = field(default_factory=dict)
    hybrid_images: dict[int, np.ndarray] = field(default_factory=dict)
    insitu_images: dict[int, np.ndarray] = field(default_factory=dict)
    temperature_fields: dict[int, np.ndarray] = field(default_factory=dict)
    #: lag -> temporal autocorrelation over the whole run (§VI extension).
    autocorrelation: dict[int, float] = field(default_factory=dict)
    task_results: list[TaskResult] = field(default_factory=list)
    #: Recorded steering-rule firings, in firing order.
    steering_events: list = field(default_factory=list)
    bytes_moved: int = 0
    #: In-transit tasks that failed terminally and left no result (the
    #: staging area's task ledger): the dicts above hold only survivors.
    failed_tasks: int = 0

    @property
    def analysed_steps(self) -> list[int]:
        steps = (set(self.statistics) | set(self.merge_trees)
                 | set(self.hybrid_images) | set(self.insitu_images))
        return sorted(steps)


class HybridFramework:
    """High-level driver of the hybrid in-situ/in-transit workflow.

    Topology, rendering and autocorrelation analyse the temperature
    field; ``stats_variables`` picks what the statistics stage reads:
    distinct names of solver fields, at least one.
    """

    KNOWN_ANALYSES = ("statistics", "topology", "visualization",
                      "visualization_insitu", "autocorrelation")
    #: Longest lag of the temporal autocorrelation of T (§VI extension).
    AUTOCORRELATION_MAX_LAG = 3

    def __init__(self, case: LiftedFlameCase, decomp: BlockDecomposition3D,
                 analyses: tuple[str, ...] = ("statistics", "topology",
                                              "visualization"),
                 stats_variables: tuple[str, ...] = ("T", "H2", "OH"),
                 downsample_stride: int = 2,
                 camera: Camera | None = None,
                 n_buckets: int = 4,
                 keep_fields: bool = False,
                 streaming_topology: bool = False,
                 steering: tuple = ()) -> None:
        for a in analyses:
            if a not in self.KNOWN_ANALYSES:
                raise ValueError(
                    f"unknown analysis {a!r}; known: {self.KNOWN_ANALYSES}")
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        if downsample_stride < 1:
            raise ValueError(
                f"downsample_stride must be >= 1, got {downsample_stride}")
        self.case = case
        self.decomp = decomp
        self.analyses = tuple(analyses)
        self.stats_variables = tuple(stats_variables)
        self.downsample_stride = downsample_stride
        self.camera = camera or Camera(image_shape=(32, 32))
        self.n_buckets = n_buckets
        self.keep_fields = keep_fields
        self.streaming_topology = streaming_topology
        self.steering = tuple(steering)
        #: Live analysis cadence; steering rules may change it mid-run.
        self.analysis_interval = 1

        # Enable tracing BEFORE constructing the framework to trace a run.
        self._tracer = get_tracer()
        self.solver = DecomposedS3D(case, decomp)
        self._check_stats_variables()
        self.engine = Engine()
        self.transport = DartTransport(self.engine)
        self.dataspaces = DataSpaces(self.engine, self.transport, n_servers=2)
        self.dataspaces.spawn_buckets(
            [f"staging-{i}" for i in range(n_buckets)])
        # Shape-only geometry of the topology stage, fixed for the run.
        self._cross_edges = cross_block_edges(decomp)
        ids = global_id_array(decomp.global_shape)
        self._block_ids = [np.ascontiguousarray(ids[b.slices])
                           for b in decomp.blocks()]
        self._boundary_masks = [block_boundary_mask(b, decomp.global_shape)
                                for b in decomp.blocks()]
        self._stats_engine = StatisticsEngine(VirtualComm(decomp.n_ranks))
        self._autocorr_learners = []
        if "autocorrelation" in self.analyses:
            from repro.analysis.statistics.autocorrelation import (
                AutocorrelationLearner,
            )
            self._autocorr_learners = [
                AutocorrelationLearner(self.AUTOCORRELATION_MAX_LAG)
                for _ in range(decomp.n_ranks)]

    def _check_stats_variables(self) -> None:
        names = self.stats_variables
        if not names:
            raise ValueError("stats_variables must name at least one field")
        if len(set(names)) != len(names):
            raise ValueError(
                f"stats_variables must be distinct, got {names}")
        unknown = [n for n in names if n not in self.solver.names]
        if unknown:
            raise ValueError(
                f"stats_variables {tuple(unknown)} are not solver fields; "
                f"known: {self.solver.names}")

    # -- per-analysis in-situ stages + task submission ---------------------------

    def _gather(self, variable: str) -> np.ndarray:
        return self.decomp.gather([p[variable] for p in self.solver.parts])

    def _transfer_function(self, field_min: float, field_max: float
                           ) -> TransferFunction:
        return TransferFunction.hot(field_min, max(field_max, field_min + 1e-9))

    def _submit_statistics(self, step: int) -> None:
        names = list(self.stats_variables)
        engine = self._stats_engine
        partials = engine.learn_partials(
            [{name: part[name] for name in names}
             for part in self.solver.parts])
        packed = engine.pack_partials(partials)
        descs = [self.transport.register(f"sim-{rank}", vec,
                                         meta={"rank": rank,
                                               "analysis": "statistics",
                                               "timestep": step})
                 for rank, vec in enumerate(packed)]

        self.dataspaces.submit_grouped_result(
            "statistics", step, descs,
            compute=lambda payloads: engine.intransit_derive(payloads, names))

    def _submit_topology(self, step: int) -> None:
        boundary_trees = compute_boundary_trees(
            [part["T"] for part in self.solver.parts],
            self._block_ids, self._boundary_masks)
        descs = [self.transport.register(f"sim-{rank}", bt,
                                         nbytes=bt.nbytes,
                                         meta={"rank": rank,
                                               "analysis": "topology",
                                               "timestep": step})
                 for rank, bt in enumerate(boundary_trees)]
        cross = self._cross_edges

        if self.streaming_topology:
            from repro.analysis.topology.stream_merge import StreamingGlue

            # §VI streaming refinement: each subtree is glued the moment
            # its pull completes; cross-block edges close the tree at the
            # end (their endpoints are only all known once every block's
            # boundary vertices have arrived).
            def stream_one(state, bt):
                glue = state if state is not None else StreamingGlue()
                for vid, val in bt.nodes.items():
                    glue.add_vertex(vid, val)
                for hi, lo in bt.edges:
                    glue.add_edge(hi, lo)
                return glue

            def finish(glue):
                for u, v in cross:
                    glue.add_edge(u, v)
                return glue.finalize()

            self.dataspaces.submit_grouped_result(
                "topology", step, descs,
                stream_compute=stream_one, stream_finalize=finish)
        else:
            self.dataspaces.submit_grouped_result(
                "topology", step, descs,
                compute=lambda payloads: glue_boundary_trees(payloads, cross))

    def _submit_visualization(self, step: int) -> None:
        blocks = []
        for rank, block in enumerate(self.decomp.blocks()):
            values = self.solver.parts[rank]["T"]
            blocks.append(downsample_block(values, block.lo, block.hi,
                                           self.downsample_stride))
        field_min = min(float(b.data.min()) for b in blocks)
        field_max = max(float(b.data.max()) for b in blocks)
        tf = self._transfer_function(field_min, field_max)
        descs = [self.transport.register(f"sim-{rank}", b,
                                         meta={"rank": rank,
                                               "analysis": "visualization",
                                               "timestep": step})
                 for rank, b in enumerate(blocks)]
        shape = self.decomp.global_shape
        camera = self.camera

        self.dataspaces.submit_grouped_result(
            "visualization", step, descs,
            compute=lambda payloads: render_intransit(payloads, shape,
                                                      camera, tf))

    def _observe_autocorrelation(self) -> None:
        """Per-step in-situ stage: feed each rank's block to its learner."""
        for learner, part in zip(self._autocorr_learners, self.solver.parts):
            learner.observe(part["T"])

    def _submit_autocorrelation(self, step: int) -> None:
        """Ship packed lag partials; serial in-transit derive of rho(k)."""
        from repro.analysis.statistics.autocorrelation import (
            derive_autocorrelation,
        )

        packed = [learner.pack() for learner in self._autocorr_learners]
        descs = [self.transport.register(f"sim-{rank}", vec,
                                         meta={"rank": rank})
                 for rank, vec in enumerate(packed)]
        max_lag = self.AUTOCORRELATION_MAX_LAG

        self.dataspaces.submit_grouped_result(
            "autocorrelation", step, descs,
            compute=lambda payloads: derive_autocorrelation(payloads, max_lag))

    def _render_insitu(self, step: int, result: FrameworkResult) -> None:
        from repro.analysis.visualization.compositing import (
            render_blocks_insitu,
        )

        field = self._gather("T")
        tf = self._transfer_function(float(field.min()), float(field.max()))
        result.insitu_images[step] = render_blocks_insitu(
            field, self.decomp, self.camera, tf)

    # -- driver --------------------------------------------------------------------

    def run(self, n_steps: int, analysis_interval: int = 1) -> FrameworkResult:
        """Advance the simulation, analysing every ``analysis_interval``-th
        step (step 0 state is analysed after the first advance).

        The staging engine is drained after every step, so in-transit
        results complete concurrently with the run and steering rules can
        adjust the live cadence (``self.analysis_interval``).
        """
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if analysis_interval < 1:
            raise ValueError("analysis_interval must be >= 1")
        self.analysis_interval = analysis_interval
        result = FrameworkResult()
        last_analysed: int | None = None
        for step in range(n_steps):
            self.solver.step()
            if "autocorrelation" in self.analyses:
                self._observe_autocorrelation()
            due = (last_analysed is None
                   or step - last_analysed >= self.analysis_interval)
            if due:
                last_analysed = step
                if self._tracer.enabled:
                    self._tracer.counter("framework.analysed_steps")
                if "statistics" in self.analyses:
                    self._traced_submit("statistics", step,
                                        self._submit_statistics)
                if "topology" in self.analyses:
                    self._traced_submit("topology", step, self._submit_topology)
                if "visualization" in self.analyses:
                    self._traced_submit("visualization", step,
                                        self._submit_visualization)
                if "visualization_insitu" in self.analyses:
                    self._render_insitu(step, result)
                if self.keep_fields:
                    result.temperature_fields[step] = self._gather("T")
            # Drain the staging engine: in-transit results for this step
            # complete now, making steering decisions causal.
            if self._tracer.enabled:
                with self._tracer.span("staging.drain", lane="driver",
                                       category="driver", step=step):
                    self.engine.run()
            else:
                self.engine.run()
            fresh = self._collect(result)
            self._apply_steering(result, fresh)

        if ("autocorrelation" in self.analyses
                and self.solver.step_count > 1):
            self._submit_autocorrelation(n_steps - 1)
        self.dataspaces.shutdown_buckets()
        self.engine.run()
        self._collect(result)
        result.bytes_moved = self.transport.bytes_moved()
        result.failed_tasks = self.dataspaces.task_accounting()["failed"]
        return result

    def _traced_submit(self, analysis: str, step: int, submit) -> None:
        """Run one in-situ stage + task submission under a span.

        The span's trace-clock duration is ~0 (the DES clock does not
        advance while in-situ Python code runs); the wall-clock duration is
        the real in-situ cost — export with ``clock="wall"`` to see it.
        """
        if self._tracer.enabled:
            with self._tracer.span(f"submit:{analysis}", lane="driver",
                                   category="insitu", stage="insitu",
                                   analysis=analysis, step=step) as sp:
                # Start the causal flow at the in-situ stage so vmpi
                # collective hops land on it; the submitted task adopts
                # it via DataSpaces.next_flow.
                flow = self._tracer.flow_begin("task", src_span=sp,
                                               analysis=analysis, step=step)
                self.dataspaces.next_flow = flow
                self._stats_engine.comm.flow = flow
                try:
                    submit(step)
                finally:
                    self._stats_engine.comm.flow = None
                    self.dataspaces.next_flow = None
            self._tracer.counter(f"framework.submit.{analysis}")
        else:
            submit(step)

    def _collect(self, result: FrameworkResult) -> list[TaskResult]:
        """Fold newly completed in-transit tasks into the result.

        ``all_results()`` is sorted by finish time, which only grows
        across drains, so the already-collected prefix is stable.
        """
        all_tasks = self.dataspaces.all_results()
        fresh = all_tasks[len(result.task_results):]
        for task in fresh:
            result.task_results.append(task)
            if task.analysis == "statistics":
                result.statistics[task.timestep] = task.value
            elif task.analysis == "topology":
                result.merge_trees[task.timestep] = task.value
            elif task.analysis == "visualization":
                result.hybrid_images[task.timestep] = task.value
            elif task.analysis == "autocorrelation":
                result.autocorrelation = task.value
        return fresh

    def _apply_steering(self, result: FrameworkResult,
                        fresh: list[TaskResult]) -> None:
        """Evaluate steering rules against results completed this step."""
        if not fresh or not self.steering:
            return
        from repro.core.steering import SteeringEvent
        for task in fresh:
            for rule in self.steering:
                before = self.analysis_interval
                if rule.consider(self, task):
                    event = SteeringEvent(
                        rule=rule.name, timestep=task.timestep,
                        analysis=task.analysis,
                        detail={"analysis_interval": self.analysis_interval,
                                "previous_interval": before})
                    result.steering_events.append(event)
                    self.dataspaces.put("steering", len(result.steering_events),
                                        event)


def traced_functional_run(n_steps: int) -> Tracer:
    """Run the laptop-scale pipeline every traced front door looks at —
    a 16x12x8 lifted flame over 2x2x1 ranks, two buckets, the default
    analyses — for ``n_steps`` under a fresh tracer, and return it."""
    shape = (16, 12, 8)
    with tracing() as tracer:
        HybridFramework(LiftedFlameCase(StructuredGrid3D(shape), seed=7),
                        BlockDecomposition3D(shape, (2, 2, 1)),
                        n_buckets=2).run(n_steps)
    return tracer

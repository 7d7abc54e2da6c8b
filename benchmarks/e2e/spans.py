"""Harness-side spans around the calls into each layer's public functions.

Nothing under ``src/`` is instrumented: for the traced run the harness
swaps each boundary function for a wrapper that records
``[name, start, end, parent, round]`` in memory, and restores the
original afterwards. Boundaries are plain calls only — work a layer does
inside DES generator processes (bucket loops, DART pulls) stays inside
the ``des:Engine.run`` span that drives it, and ``prof.<pkg>.*`` (one
round under cProfile) splits that by package.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any

NAME, START, END, PARENT, ROUND = range(5)


class SpanRecorder:
    """In-memory span list; a span's parent is the span open when it began.

    The wrappers are built once; :meth:`install` swaps them in and
    :meth:`uninstall` puts the originals back, so traced and untraced
    rounds can alternate.
    """

    def __init__(self, boundaries: list[tuple[Any, str, str]]) -> None:
        self.spans: list[list[Any]] = []
        self.round_id = -1
        self._stack: list[int] = []
        self._swaps = [(owner, attr, getattr(owner, attr),
                        self._wrapper(owner, attr, layer))
                       for owner, attr, layer in boundaries]

    def _wrapper(self, owner: Any, attr: str, layer: str) -> Any:
        original = getattr(owner, attr)
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        name = f"{layer}:{label}.{attr}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.round_id])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()

        return traced

    def traced(self, run_round: Any) -> Any:
        """``run_round`` with the wrappers in place for its duration; each
        call is one more round id."""
        def run() -> Any:
            self.round_id += 1
            self.install()
            try:
                return run_round()
            finally:
                self.uninstall()
        return run

    def install(self) -> None:
        for owner, attr, _original, traced in self._swaps:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._swaps:
            setattr(owner, attr, original)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_self_seconds(spans: list[list[Any]]) -> dict[int, dict[str, float]]:
    """round id -> layer -> summed self time (seconds, raw wall)."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        out[span[ROUND]][span[NAME].split(":", 1)[0]] += own
    return out


def boundaries() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every boundary the traced run
    wraps. Functions a module imported by name are wrapped in the
    importing namespace, which is where the call is made."""
    from repro.core import framework
    from repro.core.runner import ScaledExperiment
    from repro.des import Engine
    from repro.obs.capacity import CapacityLedger
    from repro.obs.probes import ProbeSampler
    from repro.service.api import CampaignService, JobExecutor
    from repro.service.cache import ScheduleCache
    from repro.sim.s3d import DecomposedS3D
    from repro.staging.dataspaces import DataSpaces
    from repro.staging.hashing import ServiceRing
    from repro.transport.dart import DartTransport
    from repro.vmpi.comm import VirtualComm
    import workloads

    return [
        (ScaledExperiment, "run_schedule", "core"),
        (ScaledExperiment, "staging_memory_needed", "core"),
        (framework.HybridFramework, "__init__", "core"),
        (framework.HybridFramework, "run", "core"),
        (Engine, "run", "des"),
        (ServiceRing, "__init__", "staging"),
        (DataSpaces, "__init__", "staging"),
        (DataSpaces, "spawn_buckets", "staging"),
        (DataSpaces, "submit_grouped_result", "staging"),
        (DataSpaces, "all_results", "staging"),
        (DartTransport, "__init__", "transport"),
        (DartTransport, "register", "transport"),
        (VirtualComm, "__init__", "vmpi"),
        (VirtualComm, "reduce", "vmpi"),
        (VirtualComm, "allreduce", "vmpi"),
        (DecomposedS3D, "__init__", "sim"),
        (DecomposedS3D, "step", "sim"),
        (framework, "compute_boundary_tree", "analysis"),
        (framework, "glue_boundary_trees", "analysis"),
        (framework, "downsample_block", "analysis"),
        (framework, "render_intransit", "analysis"),
        (framework.StatisticsEngine, "pack_partials", "analysis"),
        (framework.StatisticsEngine, "intransit_derive", "analysis"),
        (CampaignService, "__init__", "service"),
        (CampaignService, "run_batch", "service"),
        (JobExecutor, "execute", "service"),
        (JobExecutor, "demand", "service"),
        (ScheduleCache, "lookup", "service"),
        (ScheduleCache, "insert", "service"),
        (CapacityLedger, "finalize", "obs"),
        (ProbeSampler, "finalize", "obs"),
        (workloads, "blame", "obs"),
        (workloads, "to_chrome_trace", "obs"),
    ]

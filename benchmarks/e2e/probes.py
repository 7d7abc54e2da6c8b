"""Per-layer probes: each layer timed alone, from outside, plus one round
under cProfile folded by package. Every time is calibration-normalised
exactly like a round (``measure.timed_rounds``)."""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Callable

import numpy as np

from repro.analysis.statistics.autocorrelation import AutocorrelationLearner
from repro.analysis.statistics.moments import (
    MomentAccumulator,
    moment_merge_op,
)
from repro.analysis.topology.distributed import distributed_merge_tree
from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.downsample import (
    downsample_decomposed,
    render_intransit,
)
from repro.analysis.visualization.transfer_function import TransferFunction
from repro.backend import kernel_impl, use_backend
from repro.core.runner import ExperimentConfig, ScaledExperiment
from repro.des import Engine
from repro.obs.blame import blame
from repro.obs.export import to_chrome_trace
from repro.obs.live import TelemetryBus
from repro.obs.tracer import tracing
from repro.service import ScheduleCache
from repro.sim.grid import StructuredGrid3D
from repro.sim.lifted_flame import LiftedFlameCase
from repro.sim.s3d import S3DProxy
from repro.staging.dataspaces import DataSpaces
from repro.staging.hashing import ServiceRing
from repro.transport.dart import DartTransport
from repro.vmpi.comm import VirtualComm
from repro.vmpi.decomp import BlockDecomposition3D

import measure
import workloads as wl

#: ``prof.<pkg>.*`` rows: the packages under ``src/repro`` that do the
#: work; everything else (numpy, stdlib, the remaining repro packages)
#: folds into ``other`` so the shares sum to one.
PACKAGES = ("des", "staging", "transport", "vmpi", "analysis", "backend",
            "sim", "core", "service", "obs", "costmodel", "machine")


def ref_ms(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Median reference-host milliseconds of ``fn()``."""
    return measure.p50_ms(measure.timed_rounds(fn, lambda out: [], repeats).ratios)


def profile_round(run_round: Callable[[], Any]) -> dict[str, float]:
    """``prof.<pkg>.self_share`` / ``.calls`` from one profiled round,
    plus ``staging.rings_per_round``."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_round()
    profiler.disable()
    seconds = dict.fromkeys(PACKAGES + ("other",), 0.0)
    calls = dict.fromkeys(PACKAGES + ("other",), 0)
    rings = 0
    for (path, _line, func), (_cc, nc, tt, _ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        parts = path.replace("\\", "/").split("/repro/")
        pkg = parts[-1].split("/")[0] if len(parts) > 1 else "other"
        if pkg not in seconds:
            pkg = "other"
        seconds[pkg] += tt
        calls[pkg] += nc
        if func == "__init__" and path.endswith("staging/hashing.py"):
            rings += nc
    total = sum(seconds.values())
    out: dict[str, float] = {"staging.rings_per_round": rings}
    for pkg in seconds:
        out[f"prof.{pkg}.self_share"] = seconds[pkg] / total
        out[f"prof.{pkg}.calls"] = calls[pkg]
    return out


def des_probe() -> dict[str, float]:
    n_procs, n_timeouts = 8, 5000
    events = 0

    def run() -> None:
        nonlocal events
        engine = Engine()

        def ticker(period: float):
            for _ in range(n_timeouts):
                yield engine.timeout(period)

        for i in range(n_procs):
            engine.process(ticker(1.0 + 0.125 * i))
        engine.run()
        events = engine._seq  # the engine's own scheduled-event counter

    ms = ref_ms(run)
    return {"des.dispatch_us_per_event": ms * 1e3 / events,
            "des.events_per_round": events}


def staging_probe() -> dict[str, float]:
    def dataspaces() -> None:
        engine = Engine()
        ds = DataSpaces(engine, DartTransport(engine), n_servers=160)
        ds.spawn_buckets([f"staging-{i}" for i in range(8)])

    return {"staging.ring_build_ms": ref_ms(lambda: ServiceRing(160)),
            "staging.dataspaces_setup_ms": ref_ms(dataspaces)}


def transport_probe() -> dict[str, float]:
    n = 2000

    def run() -> None:
        engine = Engine()
        transport = DartTransport(engine)
        descs = [transport.register(f"sim-{i % 16}", None, nbytes=4096)
                 for i in range(n)]

        def puller():
            for desc in descs:
                yield from transport.pull(desc, "staging-0")

        engine.process(puller())
        engine.run()
        if transport.bytes_moved() != n * 4096:
            raise RuntimeError("transport probe moved the wrong byte count")

    return {"transport.pull_us": ref_ms(run) * 1e3 / n}


def core_probe() -> dict[str, float]:
    """Two-point fit of ``run_schedule`` cost against task count."""
    experiment = ScaledExperiment(ExperimentConfig.paper_4896())
    lo, hi = 150, 450
    ms_lo = ref_ms(lambda: experiment.run_schedule(n_steps=lo))
    ms_hi = ref_ms(lambda: experiment.run_schedule(n_steps=hi))
    per_task_ms = (ms_hi - ms_lo) / (3 * (hi - lo))
    return {"core.replay_fixed_ms": ms_lo - per_task_ms * 3 * lo,
            "core.replay_us_per_task": per_task_ms * 1e3,
            "core.breakdown_us": ref_ms(experiment.breakdown) * 1e3}


def _stat_payloads(n_ranks: int = 64, n_vars: int = 8, max_lag: int = 8):
    rng = np.random.default_rng(43)
    moments = [np.concatenate([MomentAccumulator.from_data(
        rng.uniform(0, 1, 64)).pack() for _ in range(n_vars)])
        for _ in range(n_ranks)]
    partials = []
    for _ in range(n_ranks):
        learner = AutocorrelationLearner(max_lag)
        for _ in range(max_lag + 4):
            learner.observe(rng.uniform(0, 1, 64))
        partials.append(learner.pack())
    return moments, n_vars, partials, max_lag


def kernel_probes(seed: int) -> dict[str, float]:
    """``vmpi``, ``analysis``, ``sim`` and ``backend`` on the functional
    workload's own field."""
    pipeline = wl.PipelineFunctional(seed)
    shape, ranks = pipeline.SHAPE, pipeline.RANKS
    solver = S3DProxy(LiftedFlameCase(StructuredGrid3D(shape),
                                      **pipeline.case_args))
    step_ms = ref_ms(solver.step)
    field = solver.fields["T"].copy()
    decomp = BlockDecomposition3D(shape, ranks)
    camera = Camera(image_shape=(32, 32))
    tf = TransferFunction.hot(float(field.min()), float(field.max()) + 1e-9)
    moments, n_vars, partials, max_lag = _stat_payloads()

    def statistics(backend: str | None = None) -> Callable[[], None]:
        merge = kernel_impl("statistics.merge_packed_moments", backend)
        autocorr = kernel_impl("statistics.autocorr_merge", backend)

        def run() -> None:
            merge(moments, n_vars)
            autocorr(partials, max_lag)
        return run

    def topology() -> None:
        distributed_merge_tree(field, decomp)

    def visualization() -> None:
        # The hybrid path the workload runs: down-sample in situ (the
        # framework's default stride), ray-march in transit.
        render_intransit(downsample_decomposed(field, decomp, 2), shape,
                         camera, tf)

    rng = np.random.default_rng(44)
    accs = [MomentAccumulator.from_data(rng.uniform(0, 1, 256))
            for _ in range(8)]
    comm = VirtualComm(8)

    topo_ms = ref_ms(topology)
    stats_ms = ref_ms(statistics())
    with use_backend("reference"):
        topo_ref_ms = ref_ms(topology, 1)
    stats_ref_ms = ref_ms(statistics("reference"))
    return {
        "vmpi.collective_us": ref_ms(
            lambda: comm.reduce(accs, moment_merge_op)) * 1e3,
        "analysis.topology_ms": topo_ms,
        "analysis.statistics_ms": stats_ms,
        "analysis.visualization_ms": ref_ms(visualization),
        "sim.step_ms": step_ms,
        "backend.topology_speedup": topo_ref_ms / topo_ms,
        "backend.statistics_speedup": stats_ref_ms / stats_ms,
    }


def service_probe(seed: int) -> dict[str, float]:
    sweep = wl.ServeSweep(seed)
    n = len(sweep.specs)

    def cold() -> ScheduleCache:
        cache = ScheduleCache()
        sweep._service(cache).run_batch(sweep.specs)
        return cache

    def direct() -> None:
        for spec in sweep.specs:
            sweep._direct(spec)

    # Their difference is a few percent of either, so they alternate.
    _, cold_ratios, direct_ratios = measure.timed_pairs(
        cold, direct, lambda out: [], 5)
    cold_ms = measure.p50_ms(cold_ratios)
    direct_ms = measure.p50_ms(direct_ratios)
    cache = cold()
    warm_ms = ref_ms(lambda: sweep._service(cache).run_batch(sweep.specs))
    schedule = sweep._direct(sweep.specs[0])
    probe_cache = ScheduleCache()
    reps = 200
    insert_ms = ref_ms(lambda: [probe_cache.insert("k", schedule)
                                for _ in range(reps)])
    lookup_ms = ref_ms(lambda: [probe_cache.lookup("k") for _ in range(reps)])
    cold_report, warm_reports = sweep.round()
    reports = [cold_report, *warm_reports]
    hits = sum(report.cache_hits for report in reports)
    misses = sum(report.cache_misses for report in reports)
    return {
        "service.cold_job_ms": cold_ms / n,
        "service.warm_job_us": warm_ms * 1e3 / n,
        "service.overhead_ms_per_job": (cold_ms - direct_ms) / n,
        "service.cache_hit_rate": hits / (hits + misses),
        "service.cache_insert_us": insert_ms * 1e3 / reps,
        "service.cache_lookup_us": lookup_ms * 1e3 / reps,
    }


def obs_probe(seed: int) -> dict[str, float]:
    """The ``replay_observed`` replay with each observer toggled alone;
    every observer's cost is its margin over the tracer-only replay."""
    observed = wl.ReplayObserved(seed)
    replay = observed.experiment.run_schedule
    args = dict(n_steps=observed.STEPS, n_buckets=observed.BUCKETS)

    def traced(bus: bool = False, **kwargs: Any) -> Callable[[], Any]:
        def run():
            with tracing() as tracer:
                if bus:
                    tracer.attach_bus(TelemetryBus())
                replay(**args, **kwargs)
            return tracer
        return run

    off_ms = ref_ms(lambda: replay(**args))
    tracer_ms = ref_ms(traced(capacity=False))
    probes_ms = ref_ms(traced(capacity=False,
                              probe_interval=observed.probe_interval))
    bus_ms = ref_ms(traced(bus=True, capacity=False))
    capacity_ms = ref_ms(traced(capacity=True))
    result, tracer, bus, _report, _doc = observed.round()
    on_ms = ref_ms(observed.round)
    return {
        "obs.off_ms": off_ms,
        "obs.tracer_ms": tracer_ms - off_ms,
        "obs.probes_ms": probes_ms - tracer_ms,
        "obs.bus_ms": bus_ms - tracer_ms,
        "obs.capacity_ms": capacity_ms - tracer_ms,
        "obs.blame_ms": ref_ms(lambda: blame(tracer.trace)),
        "obs.export_ms": ref_ms(
            lambda: to_chrome_trace(tracer.trace, tracer.metrics)),
        "obs.on_over_off": on_ms / off_ms,
        "obs.spans_per_round": len(tracer.trace.spans),
        "obs.bus_events_per_round": bus.published,
    }


def layer_probes(seed: int) -> dict[str, float]:
    """Every layer-alone probe; independent of the workload being run."""
    out: dict[str, float] = {}
    out.update(des_probe())
    out.update(staging_probe())
    out.update(transport_probe())
    out.update(core_probe())
    out.update(kernel_probes(seed))
    out.update(service_probe(seed))
    out.update(obs_probe(seed))
    return out

"""Backend replays: the numpy kernels against the reference on the two
paper workloads that dominate `repro replay --blame` — Fig. 6's
distributed merge tree (topology, the largest in-transit bar) and Fig. 5's in-transit
statistics merge (the staging-node reduction the scheduler feeds) — and
the same merge-tree pipeline on a smooth field, the other end of the
input range the topology speed-up depends on.

Each replay is timed min-of-repeats under both backends and its
speedup floor is asserted; the measurements are recorded to
``BENCH_backend_<which>_replay.json``, and per-kernel speedups to
``BENCH_backend_kernels.json`` without assertions — the replay floors,
not the microbenchmarks, are the contract.

Run standalone:  python benchmarks/bench_backend.py
"""

import timeit

import numpy as np
import pytest

from repro.analysis.statistics.autocorrelation import AutocorrelationLearner
from repro.analysis.statistics.moments import MomentAccumulator
from repro.analysis.topology.distributed import distributed_merge_tree
from repro.backend import kernel_impl, use_backend
from repro.sim import LiftedFlameCase, S3DProxy, StructuredGrid3D
from repro.vmpi import BlockDecomposition3D

#: The ISSUE's acceptance floor for the two paper-figure replays.
SPEEDUP_FLOOR = 5.0


def _best(fn, number=1, repeat=5):
    """Fastest observed execution — noise only ever adds time."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


# ---------------------------------------------------------------------------
# Fig. 6 replay: the distributed merge tree pipeline
# ---------------------------------------------------------------------------

FIG6_SHAPE = (36, 30, 24)
FIG6_RANKS = (2, 2, 2)


def _fig6_field() -> np.ndarray:
    """Combustion-like blobs plus grid-scale noise, quantized to 8
    levels — the precision-reduced representation the in-situ stage
    ships to staging. The plateau runs that quantization creates are
    exactly what degrades the reference's streaming glue."""
    rng = np.random.default_rng(42)
    coords = np.stack(
        np.mgrid[[slice(0, s) for s in FIG6_SHAPE]]).astype(float)
    f = np.zeros(FIG6_SHAPE)
    for _ in range(6):
        c = [rng.uniform(1, s - 1) for s in FIG6_SHAPE]
        d2 = sum((coords[a] - c[a]) ** 2 for a in range(3))
        f += rng.uniform(0.5, 1.5) * np.exp(-d2 / rng.uniform(6, 14))
    f += rng.uniform(0, 1, FIG6_SHAPE)
    return np.floor(f / f.max() * 7)


def fig6_replay(backend: str) -> float:
    field = _fig6_field()
    decomp = BlockDecomposition3D(FIG6_SHAPE, FIG6_RANKS)
    with use_backend(backend):
        return _best(lambda: distributed_merge_tree(field, decomp),
                     number=1, repeat=3)


# ---------------------------------------------------------------------------
# Smooth replay: the same pipeline on a lifted-flame temperature field
# ---------------------------------------------------------------------------

SMOOTH_SHAPE = (24, 24, 16)
SMOOTH_RANKS = (2, 2, 2)
#: A few maxima per block instead of Fig. 6's thousands: the reference
#: has less to lose, so the ratio is lower and has its own floor.
SMOOTH_SPEEDUP_FLOOR = 4.0


def _smooth_field() -> np.ndarray:
    """Temperature after one solver step of the default lifted flame,
    ignition kernels off: the field the end-to-end benchmark analyses."""
    solver = S3DProxy(LiftedFlameCase(StructuredGrid3D(SMOOTH_SHAPE),
                                      kernel_rate=0.0))
    solver.step()
    return solver.fields["T"].copy()


def smooth_replay(backend: str) -> float:
    field = _smooth_field()
    decomp = BlockDecomposition3D(SMOOTH_SHAPE, SMOOTH_RANKS)
    with use_backend(backend):
        return _best(lambda: distributed_merge_tree(field, decomp),
                     number=1, repeat=5)


# ---------------------------------------------------------------------------
# Fig. 5 replay: the in-transit statistics merge on the staging node
# ---------------------------------------------------------------------------

FIG5_RANKS = 256
FIG5_VARS = 8
FIG5_MAX_LAG = 16


def _fig5_payload():
    """Per-rank packed moment vectors + packed autocorrelation partials
    — the byte-streams the DART pull delivers to the staging node."""
    rng = np.random.default_rng(43)
    packed_moments = []
    for _ in range(FIG5_RANKS):
        accs = [MomentAccumulator.from_data(rng.uniform(0, 1, 64))
                for _ in range(FIG5_VARS)]
        packed_moments.append(np.concatenate([a.pack() for a in accs]))
    partials = []
    for _ in range(FIG5_RANKS):
        learner = AutocorrelationLearner(FIG5_MAX_LAG)
        for _ in range(FIG5_MAX_LAG + 4):
            learner.observe(rng.uniform(0, 1, 64))
        partials.append(learner.pack())
    return packed_moments, partials


def fig5_replay(backend: str) -> float:
    packed_moments, partials = _fig5_payload()
    merge_packed = kernel_impl("statistics.merge_packed_moments", backend)
    autocorr = kernel_impl("statistics.autocorr_merge", backend)

    def replay():
        merge_packed(packed_moments, FIG5_VARS)
        autocorr(partials, FIG5_MAX_LAG)

    return _best(replay, number=1, repeat=5)


# ---------------------------------------------------------------------------
# replay floor tests
# ---------------------------------------------------------------------------


def _assert_floor(which: str, replay, floor: float,
                  bench_json_writer) -> None:
    ref_s = replay("reference")
    numpy_s = replay("numpy")
    speedup = ref_s / numpy_s
    bench_json_writer(f"backend_{which}_replay", {
        "name": f"backend_{which}_replay",
        "reference_s": ref_s,
        "numpy_s": numpy_s,
        "speedup": speedup,
        "floor": floor,
    })
    print(f"\n{which} replay: reference {ref_s * 1e3:.1f}ms, "
          f"numpy {numpy_s * 1e3:.1f}ms -> {speedup:.1f}x")
    assert speedup >= floor, (
        f"{which} replay speedup {speedup:.2f}x below the {floor}x floor")


def test_fig6_replay_speedup_floor(bench_json_writer):
    _assert_floor("fig6", fig6_replay, SPEEDUP_FLOOR, bench_json_writer)


def test_smooth_replay_speedup_floor(bench_json_writer):
    _assert_floor("smooth", smooth_replay, SMOOTH_SPEEDUP_FLOOR,
                  bench_json_writer)


def test_fig5_replay_speedup_floor(bench_json_writer):
    _assert_floor("fig5", fig5_replay, SPEEDUP_FLOOR, bench_json_writer)


# ---------------------------------------------------------------------------
# per-kernel speedups (recorded, not asserted)
# ---------------------------------------------------------------------------


def _kernel_cases():
    rng = np.random.default_rng(44)
    packed_moments, partials = _fig5_payload()
    blocks = [rng.uniform(0, 1, 128) for _ in range(512)]
    field = _fig6_field()
    decomp = BlockDecomposition3D(FIG6_SHAPE, FIG6_RANKS)
    from repro.analysis.topology.distributed import (
        compute_block_boundary_trees,
        cross_block_edges,
    )

    bts = compute_block_boundary_trees(field, decomp)
    edges = cross_block_edges(decomp)
    return {
        "statistics.merge_packed_moments":
            lambda impl: impl(packed_moments, FIG5_VARS),
        "statistics.autocorr_merge":
            lambda impl: impl(partials, FIG5_MAX_LAG),
        "statistics.learn_blocks": lambda impl: impl(blocks),
        "topology.glue_batch": lambda impl: impl(bts, edges),
        "topology.merge_tree": lambda impl: impl(field),
    }


def test_per_kernel_speedups_recorded(bench_json_writer):
    rows = {}
    for name, call in _kernel_cases().items():
        ref = kernel_impl(name, "reference")
        fast = kernel_impl(name, "numpy")
        ref_s = _best(lambda: call(ref), number=1, repeat=3)
        fast_s = _best(lambda: call(fast), number=1, repeat=3)
        rows[name] = {"reference_s": ref_s, "numpy_s": fast_s,
                      "speedup": ref_s / fast_s}
    bench_json_writer("backend_kernels", {"name": "backend_kernels",
                                          "kernels": rows})
    print()
    for name, row in sorted(rows.items()):
        print(f"  {name:36s} {row['speedup']:6.1f}x")
    # Every ported kernel must at least not regress on its home regime.
    for name, row in rows.items():
        assert row["speedup"] > 1.0, (
            f"{name} slower than reference: {row['speedup']:.2f}x")


if __name__ == "__main__":
    for which, replay, floor in (
            ("fig6", fig6_replay, SPEEDUP_FLOOR),
            ("smooth", smooth_replay, SMOOTH_SPEEDUP_FLOOR),
            ("fig5", fig5_replay, SPEEDUP_FLOOR)):
        ref_s = replay("reference")
        numpy_s = replay("numpy")
        print(f"{which} replay: reference {ref_s * 1e3:.1f}ms, numpy "
              f"{numpy_s * 1e3:.1f}ms -> {ref_s / numpy_s:.1f}x "
              f"(floor {floor}x)")

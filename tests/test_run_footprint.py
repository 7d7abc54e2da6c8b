"""What a run builds and what it leaves behind.

A replay builds only what it reads: no front door reads a DHT ring's
per-server RPC counts, so a fresh interpreter running the benchmark's
Fig. 5 replays hashes no ring point. And a finished run is freed by
reference counting alone: it leaves no reference cycle for the cyclic
collector (traced replays and the campaign service are outside this
rule; DESIGN.md §4 records their counts).
"""

import gc

import pytest

from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment
from tests.test_lazy_imports import _python


def test_fresh_replay_long_builds_no_ring():
    """The benchmark's ``replay_long`` round, both replays, in a fresh
    interpreter: the ring-geometry memo is still empty at the end."""
    out = _python(
        "import workloads\n"
        "from repro.staging import hashing\n"
        "workload = workloads.ReplayLong(2012)\n"
        "_, errors = workload.verify(workload.round())\n"
        "assert not errors, errors\n"
        "print(hashing._ring_geometry.cache_info().currsize)\n")
    assert out.stdout.split() == ["0"]


def _cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after ``run()``'s result is
    dropped. A first call warms imports and memos."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _replay(config, plan, controller=None):
    def run():
        ScaledExperiment(getattr(ExperimentConfig, config)()).run_schedule(
            plan, controller=controller() if controller else None)
    return run


REPLAYS = {
    "plain": ("paper_4896", ReplayPlan(n_steps=30)),
    "starved": ("paper_9440", ReplayPlan(n_steps=20, n_buckets=8)),
    "sharded": ("paper_4896", ReplayPlan(n_steps=12, n_buckets=6,
                                         n_shards=2)),
    "faulted": ("paper_4896", ReplayPlan(
        n_steps=12, n_buckets=4, lease_timeout=5.0, bucket_restart_delay=1.5,
        max_bucket_restarts=2, crash_times=(30.0, 55.0),
        pull_failure_rate=0.2, pull_stall_rate=0.1, pull_stall_seconds=2.0,
        fault_seed=3)),
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_untraced_replay_leaves_no_cycle(name):
    config, plan = REPLAYS[name]
    assert _cyclic_garbage(_replay(config, plan)) == 0


def test_controller_driven_replay_leaves_no_cycle():
    from repro.control.controller import PlacementController
    from repro.control.scenario import CONTROL_PLAN

    assert _cyclic_garbage(_replay("paper_4896", CONTROL_PLAN,
                                   controller=PlacementController)) == 0


def test_functional_run_leaves_no_cycle():
    from repro.core.framework import HybridFramework
    from repro.sim.grid import StructuredGrid3D
    from repro.sim.lifted_flame import LiftedFlameCase
    from repro.vmpi.decomp import BlockDecomposition3D

    shape = (12, 12, 8)

    def run():
        HybridFramework(
            LiftedFlameCase(StructuredGrid3D(shape), kernel_rate=0.0),
            BlockDecomposition3D(shape, (2, 2, 2)), n_buckets=2).run(2)

    assert _cyclic_garbage(run) == 0

"""Whole-system integration tests: everything on at once + determinism."""

import numpy as np
import pytest

from repro.core import HybridFramework
from repro.core.report import run_report
from repro.core.steering import refine_cadence_on_topology
from repro.sim import LiftedFlameCase, StructuredGrid3D
from repro.vmpi import BlockDecomposition3D

SHAPE = (12, 10, 8)


def build(seed=77, streaming=False, steering=()):
    grid = StructuredGrid3D(SHAPE, (1.5, 1.2, 1.0))
    case = LiftedFlameCase(grid, seed=seed, kernel_rate=1.5)
    decomp = BlockDecomposition3D(SHAPE, (2, 2, 1))
    return HybridFramework(
        case, decomp,
        analyses=("statistics", "topology", "visualization",
                  "visualization_insitu", "autocorrelation"),
        stats_variables=("T", "H2"),
        n_buckets=3, keep_fields=True,
        streaming_topology=streaming,
        steering=steering,
    )


@pytest.fixture(scope="module")
def everything_run():
    fw = build()
    return fw, fw.run(4)


class TestEverythingOn:
    def test_all_products_present(self, everything_run):
        _fw, res = everything_run
        assert set(res.statistics) == {0, 1, 2, 3}
        assert set(res.merge_trees) == {0, 1, 2, 3}
        assert set(res.hybrid_images) == {0, 1, 2, 3}
        assert set(res.insitu_images) == {0, 1, 2, 3}
        assert set(res.autocorrelation) == {1, 2, 3}

    def test_task_accounting_consistent(self, everything_run):
        _fw, res = everything_run
        # 4 steps x (stats + topo + viz) + 1 autocorrelation
        assert len(res.task_results) == 4 * 3 + 1
        assert res.bytes_moved == sum(t.bytes_pulled for t in res.task_results)

    def test_cross_analysis_consistency(self, everything_run):
        """Independently computed products agree with each other."""
        _fw, res = everything_run
        for step in range(4):
            field = res.temperature_fields[step]
            stats = res.statistics[step]["T"]
            tree = res.merge_trees[step]
            # statistics' max is the merge tree's highest leaf value
            top_leaf = max(tree.reduced().leaves(),
                           key=lambda n: tree.value[n])
            assert tree.value[top_leaf] == pytest.approx(float(field.max()))
            assert stats.maximum == pytest.approx(float(field.max()))

    def test_report_renders(self, everything_run):
        fw, res = everything_run
        text = run_report(fw, res)
        for token in ("statistics", "topology", "visualization",
                      "autocorrelation"):
            assert token in text


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        a = build(seed=88).run(3)
        b = build(seed=88).run(3)
        for step in range(3):
            np.testing.assert_array_equal(a.temperature_fields[step],
                                          b.temperature_fields[step])
            np.testing.assert_array_equal(a.hybrid_images[step],
                                          b.hybrid_images[step])
            assert a.merge_trees[step].signature() == \
                b.merge_trees[step].signature()
            assert a.statistics[step]["T"].mean == b.statistics[step]["T"].mean
        assert a.autocorrelation == b.autocorrelation
        assert a.bytes_moved == b.bytes_moved

    def test_different_seeds_differ(self):
        a = build(seed=88).run(3)
        b = build(seed=89).run(3)
        assert not np.array_equal(a.temperature_fields[2],
                                  b.temperature_fields[2])

    def test_streaming_mode_same_science(self):
        """Streaming changes scheduling, never results."""
        a = build(seed=90, streaming=False).run(3)
        b = build(seed=90, streaming=True).run(3)
        for step in range(3):
            assert a.merge_trees[step].reduced().signature() == \
                b.merge_trees[step].reduced().signature()
            np.testing.assert_array_equal(a.temperature_fields[step],
                                          b.temperature_fields[step])

    def test_steering_only_changes_cadence(self):
        """With rules attached but never firing, results are identical to
        the unsteered run."""
        never = refine_cadence_on_topology(n_maxima=10**6, new_interval=1)
        a = build(seed=91).run(3)
        b = build(seed=91, steering=(never,)).run(3)
        assert never.firings == 0
        for step in range(3):
            np.testing.assert_array_equal(a.temperature_fields[step],
                                          b.temperature_fields[step])

"""End-to-end tests of the functional hybrid pipeline (HybridFramework)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.statistics.moments import MomentAccumulator
from repro.analysis.statistics.stages import derive, learn
from repro.analysis.topology.merge_tree import compute_merge_tree
from repro.backend import numpy_backend, use_backend
from repro.core import HybridFramework
from repro.sim import VARIABLE_NAMES, LiftedFlameCase, StructuredGrid3D
from repro.vmpi import BlockDecomposition3D

GRID_SHAPE = (12, 10, 8)


@pytest.fixture(scope="module")
def pipeline_result():
    """One shared 3-step run exercising all analyses (module-scoped: the
    functional pipeline is the slowest fixture in the suite)."""
    grid = StructuredGrid3D(GRID_SHAPE, (1.5, 1.2, 1.0))
    case = LiftedFlameCase(grid, seed=42, kernel_rate=1.0)
    decomp = BlockDecomposition3D(GRID_SHAPE, (2, 2, 1))
    fw = HybridFramework(
        case, decomp,
        analyses=("statistics", "topology", "visualization",
                  "visualization_insitu"),
        stats_variables=("T", "H2"),
        downsample_stride=2,
        n_buckets=3,
        keep_fields=True,
    )
    return fw, fw.run(n_steps=3)


class TestFrameworkRun:
    def test_all_steps_analysed(self, pipeline_result):
        _fw, res = pipeline_result
        assert res.analysed_steps == [0, 1, 2]
        assert set(res.statistics) == {0, 1, 2}
        assert set(res.merge_trees) == {0, 1, 2}
        assert set(res.hybrid_images) == {0, 1, 2}
        assert set(res.insitu_images) == {0, 1, 2}

    def test_statistics_match_serial_reference(self, pipeline_result):
        """The staged, RDMA-pulled, serially-derived statistics equal a
        direct learn+derive on the gathered field."""
        _fw, res = pipeline_result
        for step in (0, 1, 2):
            field = res.temperature_fields[step]
            ref = derive(learn(field))
            got = res.statistics[step]["T"]
            assert got.n == field.size
            assert got.mean == pytest.approx(ref.mean, rel=1e-12)
            assert got.variance == pytest.approx(ref.variance, rel=1e-9)

    def test_merge_tree_matches_global_reference(self, pipeline_result):
        """The glued in-transit tree equals the tree of the gathered field."""
        _fw, res = pipeline_result
        for step in (0, 1, 2):
            ref_tree, _ = compute_merge_tree(res.temperature_fields[step])
            glued = res.merge_trees[step]
            assert glued.reduced().signature() == ref_tree.reduced().signature()

    def test_images_have_content(self, pipeline_result):
        _fw, res = pipeline_result
        for step in (0, 1, 2):
            hybrid = res.hybrid_images[step]
            insitu = res.insitu_images[step]
            assert hybrid.shape == insitu.shape == (32, 32, 3)
            assert hybrid.max() > 0.0 and insitu.max() > 0.0

    def test_hybrid_image_approximates_insitu(self, pipeline_result):
        """Fig. 2: the down-sampled in-transit render resembles the
        full-resolution in-situ render."""
        from repro.util import image_rmse
        _fw, res = pipeline_result
        err = image_rmse(res.hybrid_images[0], res.insitu_images[0])
        assert err < 0.25

    def test_tasks_ran_on_staging_buckets(self, pipeline_result):
        _fw, res = pipeline_result
        # 3 steps x 3 staged analyses (in-situ viz does not stage)
        assert len(res.task_results) == 9
        assert all(r.bucket.startswith("staging-") for r in res.task_results)
        assert res.bytes_moved > 0

    def test_movement_far_below_raw_data(self, pipeline_result):
        """Intermediate results are much smaller than the raw state."""
        fw, res = pipeline_result
        raw_per_step = fw.solver.assemble().nbytes
        assert res.bytes_moved < 3 * raw_per_step

    def test_simulation_actually_advanced(self, pipeline_result):
        fw, res = pipeline_result
        assert fw.solver.step_count == 3
        assert not np.array_equal(res.temperature_fields[0],
                                  res.temperature_fields[2])


class TestFrameworkConfig:
    def _mk(self, **kw):
        grid = StructuredGrid3D((8, 8, 8))
        case = LiftedFlameCase(grid, seed=1)
        decomp = BlockDecomposition3D((8, 8, 8), (2, 1, 1))
        return HybridFramework(case, decomp, **kw)

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis"):
            self._mk(analyses=("statistics", "nonsense"))

    def test_run_validation(self):
        fw = self._mk(analyses=("statistics",))
        with pytest.raises(ValueError):
            fw.run(0)
        with pytest.raises(ValueError):
            fw.run(1, analysis_interval=0)

    def test_analysis_interval_skips_steps(self):
        fw = self._mk(analyses=("statistics",), n_buckets=2)
        res = fw.run(n_steps=4, analysis_interval=2)
        assert sorted(res.statistics) == [0, 2]

    def test_statistics_only_pipeline(self):
        fw = self._mk(analyses=("statistics",), stats_variables=("T",))
        res = fw.run(n_steps=2)
        assert set(res.statistics) == {0, 1}
        assert res.merge_trees == {}
        assert res.hybrid_images == {}

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_buckets=0), "n_buckets must be >= 1, got 0"),
        (dict(n_buckets=-1), "n_buckets must be >= 1, got -1"),
        (dict(stats_variables=("T", "T")),
         r"must be distinct, got \('T', 'T'\)"),
        (dict(stats_variables=("X",)), r"\('X',\) are not solver fields"),
        (dict(stats_variables=()), "must name at least one field"),
        (dict(downsample_stride=0), "downsample_stride must be >= 1, got 0"),
    ], ids=["n_buckets_0", "n_buckets_neg", "stats_duplicate",
            "stats_unknown", "stats_empty", "downsample_stride_0"])
    def test_bad_config_refused_at_construction(self, kwargs, match):
        """Each of these used to fail late (the first step, the first
        analysed step, every in-transit statistics task) or silently (no
        bucket to run the tasks on); construction now refuses it."""
        with pytest.raises(ValueError, match=match):
            self._mk(**kwargs)


class TestFailedTasks:
    def test_refused_render_counts_as_failed_task(self):
        """A NaN in the temperature reaches the in-transit render, which
        refuses it: every step's task fails terminally and is counted."""
        grid = StructuredGrid3D((16, 12, 8))
        fw = HybridFramework(LiftedFlameCase(grid, seed=3),
                             BlockDecomposition3D(grid.shape, (2, 2, 1)),
                             analyses=("visualization",), n_buckets=2)
        fw.solver.parts[0]["T"][0, 0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            res = fw.run(n_steps=3)
        assert res.failed_tasks == 3
        assert res.hybrid_images == {} and res.task_results == []
        assert fw.dataspaces.task_accounting()["outstanding"] == 0

    def test_clean_run_has_no_failed_tasks(self, pipeline_result):
        _fw, res = pipeline_result
        assert res.failed_tasks == 0


def _decomposed_grid(procs, extents, remainders):
    """Global shape of ``procs`` blocks per axis of ``extents`` cells,
    plus ``remainders`` extra cells (an uneven split when nonzero)."""
    return tuple(p * e + r for p, e, r in zip(procs, extents, remainders))


@st.composite
def _stats_layouts(draw):
    procs = draw(st.tuples(*[st.integers(1, 2)] * 3))
    large = draw(st.booleans())
    # Per-axis extents whose products sit on either side of the batched
    # learn's size gate: at most 6**3 = 216 or at least 13**3 = 2197.
    extent = st.integers(13, 14) if large else st.integers(3, 6)
    extents = draw(st.tuples(extent, extent, extent))
    remainders = tuple(draw(st.integers(0, p - 1)) for p in procs)
    names = draw(st.lists(st.sampled_from(VARIABLE_NAMES), min_size=1,
                          max_size=4, unique=True))
    return procs, _decomposed_grid(procs, extents, remainders), large, names


class TestInSituPartials:
    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    @given(layout=_stats_layouts())
    # Even splits, so the numpy backend stacks the blocks (small) or
    # learns them one by one (large); the draws add uneven ones.
    @example(layout=((2, 2, 2), (24, 24, 16), False, ["T", "H2", "OH"]))
    @example(layout=((2, 1, 1), (26, 13, 13), True, ["OH", "T"]))
    @settings(max_examples=16, deadline=None)
    def test_partials_equal_per_block_learn(self, backend, layout):
        """The framework's in-situ statistics learn all (rank, variable)
        blocks in one batched call; every partial equals ``from_data`` on
        that block alone, bit for bit, whichever path the batch takes."""
        procs, shape, large, names = layout
        decomp = BlockDecomposition3D(shape, procs)
        sizes = [b.n_cells for b in decomp.blocks()]
        gate = numpy_backend.LEARN_BLOCK_MAX_ELEMS
        assert min(sizes) > gate if large else max(sizes) <= gate
        fw = HybridFramework(LiftedFlameCase(StructuredGrid3D(shape), seed=5),
                             decomp, analyses=("statistics",),
                             stats_variables=tuple(names), n_buckets=1)
        learned = []
        pack = fw._stats_engine.pack_partials

        def spy(partials):
            learned.append(partials)
            return pack(partials)

        fw._stats_engine.pack_partials = spy
        with use_backend(backend):
            res = fw.run(n_steps=1)
        assert len(learned) == 1 and res.failed_tasks == 0
        for part, partial in zip(fw.solver.parts, learned[0]):
            assert list(partial) == names
            for name in names:
                want = MomentAccumulator.from_data(part[name]).pack()
                assert partial[name].pack().tobytes() == want.tobytes()

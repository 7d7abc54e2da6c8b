"""Bit-exact equivalence of the numpy backend against the reference.

Every kernel behind the ``repro.backend`` seam must produce *identical*
outputs under every backend — not approximately equal: merge trees,
moment accumulators and collective folds are compared with ``==`` /
``np.array_equal``, never with tolerances. The
suites here are parametrized over ``["reference", "numpy"]`` so the
dispatch path itself is exercised, and inputs are chosen on both sides
of the numpy backend's regime gates so its vectorized and fallback
paths go through the same assertions.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics.autocorrelation import (
    AutocorrelationLearner,
    _autocorr_cross_sums,
    _autocorr_merge,
)
from repro.analysis.statistics.moments import (
    MomentAccumulator,
    learn_blocks,
    merge_accumulators,
    merge_packed_moments,
    moment_merge_op,
)
from repro.analysis.topology.distributed import distributed_merge_tree
from repro.analysis.topology.merge_tree import compute_merge_tree
from repro.analysis.topology.stream_merge import compute_merge_tree_graph
from repro.backend import (
    available_backends,
    get_backend,
    kernel_impl,
    kernel_names,
    known_backends,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.backend import numpy_backend as nb
from repro.backend.registry import _warned
from repro.des import Engine
from repro.vmpi import BlockDecomposition3D

BACKENDS = ["reference", "numpy"]


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Isolate override/env state so suites cannot leak into each other."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    previous = set_backend(None)
    yield
    set_backend(previous)


def both(name):
    """(reference_impl, numpy_impl) for one kernel."""
    return kernel_impl(name, "reference"), kernel_impl(name, "numpy")


def assert_trees_equal(a, b):
    assert a.value == b.value
    assert a.parent == b.parent


def assert_trees_identical(a, b):
    """Equal down to node order and child order: the two sweeps add
    nodes and arcs in the same sequence."""
    assert list(a.value.items()) == list(b.value.items())
    assert list(a.parent.items()) == list(b.parent.items())
    assert list(a._children.items()) == list(b._children.items())


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_both_backends_known_and_available(self):
        assert {"reference", "numpy"} <= set(known_backends())
        assert {"reference", "numpy"} <= set(available_backends())

    def test_default_is_reference(self):
        assert get_backend() == "reference"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend() == "numpy"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        prev = set_backend("reference")
        try:
            assert get_backend() == "reference"
        finally:
            set_backend(prev)

    def test_use_backend_restores_previous(self):
        set_backend("numpy")
        with use_backend("reference") as active:
            assert active == "reference"
        assert get_backend() == "numpy"

    def test_unknown_backend_warns_once_and_falls_back(self):
        _warned.discard("nosuch")
        with pytest.warns(RuntimeWarning, match="unknown backend"):
            assert resolve_backend("nosuch") == "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("nosuch") == "reference"

    def test_loader_import_error_falls_back(self):
        def broken():
            raise ImportError("no such optional dependency")

        register_backend("broken-backend", broken)
        try:
            _warned.discard("broken-backend")
            with pytest.warns(RuntimeWarning, match="unavailable"):
                assert resolve_backend("broken-backend") == "reference"
            assert "broken-backend" not in available_backends()
            # dispatch under the broken backend runs the reference body
            with use_backend("broken-backend"):
                tree, arc = compute_merge_tree(np.arange(6.0).reshape(2, 3))
            assert arc.size == 6
        finally:
            from repro.backend import registry

            registry._LOADERS.pop("broken-backend", None)
            registry._LOADED.pop("broken-backend", None)

    def test_reference_backend_cannot_be_replaced(self):
        with pytest.raises(ValueError):
            register_backend("reference", dict)

    def test_kernel_names_cover_the_four_hot_paths(self):
        """Three hot paths: DES dispatch left the seam (one engine for
        every backend). The test id is pinned by the tier-1 floor list."""
        names = kernel_names()
        assert len(names) == 10
        assert not [n for n in names if n.startswith("des.")]
        assert "vmpi.pairwise_reduce" in names
        assert "topology.merge_tree" in names
        assert "statistics.merge_packed_moments" in names

    def test_numpy_table_only_overrides_declared_kernels(self):
        assert set(nb.KERNELS) <= set(kernel_names())

    def test_kernel_impl_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            kernel_impl("no.such.kernel")


# ---------------------------------------------------------------------------
# DES dispatch: one engine, whichever backend is active
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestEngineDispatch:
    """The engine left the backend seam, so selecting a backend must not
    change dispatch order. The order contract itself is tested against
    its oracle in ``tests/test_des.py``."""

    def test_equal_timestamp_events_fire_in_schedule_order(self, backend):
        with use_backend(backend):
            eng = Engine()
            fired = []
            for tag in range(8):
                eng._schedule(1.0, fired.append, tag)
            # a chained event scheduled *during* the 1.0 cascade, at 1.0
            eng._schedule(
                1.0, lambda _: eng._schedule(0.0, fired.append, "late"),
                None)
            eng.run()
        assert fired == list(range(8)) + ["late"]

    def test_seeded_replay_digest(self, backend):
        def run_once():
            eng = Engine()
            rng = np.random.default_rng(7)
            log = []

            def proc(tag):
                for _ in range(40):
                    yield eng.timeout(float(rng.integers(0, 5)))
                    log.append((eng.now, tag))

            for tag in range(12):
                eng.process(proc(tag))
            eng.run()
            return log

        with use_backend("reference"):
            expected = run_once()
        with use_backend(backend):
            got = run_once()
        assert got == expected

    def test_storm_replay_crosses_flush_threshold(self, backend):
        def run_once():
            eng = Engine()
            log = []
            for i in range(768):
                eng._schedule(float(i % 9), log.append, i)
            eng.run()
            return log

        with use_backend("reference"):
            expected = run_once()
        with use_backend(backend):
            got = run_once()
        assert got == expected


# ---------------------------------------------------------------------------
# vmpi collectives
# ---------------------------------------------------------------------------


class TestCollectives:
    def test_ndarray_reduce_fallback_path(self):
        # ndarray payloads route to the reference body verbatim
        rng = np.random.default_rng(5)
        vals = [rng.uniform(-2, 2, 16) for _ in range(7)]
        ref, fast = both("vmpi.pairwise_reduce")
        assert np.array_equal(ref([v.copy() for v in vals], np.add),
                              fast([v.copy() for v in vals], np.add))

    def test_object_reduce_fallback(self):
        ref, fast = both("vmpi.pairwise_reduce")

        def cat(a, b):
            return a + b

        vals = [f"<{i}>" for i in range(13)]
        assert ref(list(vals), cat) == fast(list(vals), cat)

    def test_moment_merge_route(self):
        rng = np.random.default_rng(6)
        accs = [MomentAccumulator.from_data(rng.uniform(0, 1, 50))
                for _ in range(9)]
        ref, fast = both("vmpi.pairwise_reduce")
        a = ref(list(accs), moment_merge_op)
        b = fast(list(accs), moment_merge_op)
        assert np.array_equal(a.pack(), b.pack())


# ---------------------------------------------------------------------------
# statistics kernels
# ---------------------------------------------------------------------------


class TestStatistics:
    def _blocks(self, seed, n_blocks, m):
        rng = np.random.default_rng(seed)
        return [rng.uniform(-3, 7, m) for _ in range(n_blocks)]

    @pytest.mark.parametrize("m", [16, 3000])  # below / above the gate
    def test_learn_blocks_both_regimes(self, m):
        blocks = self._blocks(8, 24, m)
        assert m <= nb.LEARN_BLOCK_MAX_ELEMS or m > nb.LEARN_BLOCK_MAX_ELEMS
        ref, fast = both("statistics.learn_blocks")
        a = ref([b.copy() for b in blocks])
        b_ = fast([b.copy() for b in blocks])
        for x, y in zip(a, b_):
            assert np.array_equal(x.pack(), y.pack())

    def test_learn_blocks_ragged_falls_back(self):
        rng = np.random.default_rng(9)
        blocks = [rng.uniform(0, 1, m) for m in (8, 12, 8)]
        ref, fast = both("statistics.learn_blocks")
        for x, y in zip(ref(blocks), fast(blocks)):
            assert np.array_equal(x.pack(), y.pack())

    def test_merge_moments_identical(self):
        accs = [MomentAccumulator.from_data(b)
                for b in self._blocks(10, 31, 40)]
        ref, fast = both("statistics.merge_moments")
        assert np.array_equal(ref(list(accs)).pack(),
                              fast(list(accs)).pack())

    def test_merge_moments_with_empty_accumulator(self):
        accs = [MomentAccumulator(), *(MomentAccumulator.from_data(b)
                                       for b in self._blocks(11, 5, 9))]
        ref, fast = both("statistics.merge_moments")
        assert np.array_equal(ref(list(accs)).pack(),
                              fast(list(accs)).pack())

    def test_merge_packed_moments_identical(self):
        n_vars = 5
        rng = np.random.default_rng(12)
        packed = []
        for _ in range(64):
            accs = [MomentAccumulator.from_data(rng.uniform(0, 1, 30))
                    for _ in range(n_vars)]
            packed.append(np.concatenate([a.pack() for a in accs]))
        ref, fast = both("statistics.merge_packed_moments")
        a = ref([p.copy() for p in packed], n_vars)
        b = fast([p.copy() for p in packed], n_vars)
        for x, y in zip(a, b):
            assert np.array_equal(x.pack(), y.pack())

    def test_autocorr_cross_sums_identical(self):
        rng = np.random.default_rng(14)
        current = rng.uniform(-2, 2, 400)
        history = [rng.uniform(-2, 2, 400) for _ in range(12)]
        ref, fast = both("statistics.autocorr_cross_sums")
        assert np.array_equal(ref(current, list(history)),
                              fast(current, list(history)))

    def test_autocorr_merge_identical(self):
        rng = np.random.default_rng(15)
        max_lag = 6
        partials = []
        for _ in range(32):
            learner = AutocorrelationLearner(max_lag)
            for _ in range(max_lag + 4):
                learner.observe(rng.uniform(0, 1, 64))
            partials.append(learner.pack())
        ref, fast = both("statistics.autocorr_merge")
        assert np.array_equal(ref([p.copy() for p in partials], max_lag),
                              fast([p.copy() for p in partials], max_lag))

    def test_autocorr_merge_zero_lag(self):
        ref, fast = both("statistics.autocorr_merge")
        assert np.array_equal(ref([], 0), fast([], 0))


# ---------------------------------------------------------------------------
# topology kernels
# ---------------------------------------------------------------------------


def _plateau_field(rng, shape):
    """Quantized values: many exact ties exercise the plateau rules."""
    return rng.integers(0, 6, size=shape).astype(np.float64)


class TestTopology:
    @pytest.mark.parametrize("shape", [(), (40,), (9, 7), (6, 5, 4),
                                       (3, 4, 3, 2)])
    def test_merge_tree_identical_any_dimension(self, shape):
        rng = np.random.default_rng(16)
        field = _plateau_field(rng, shape)
        ref, fast = both("topology.merge_tree")
        tree_a, arc_a = ref(field)
        tree_b, arc_b = fast(field)
        assert_trees_identical(tree_a, tree_b)
        assert arc_a.dtype == arc_b.dtype
        assert arc_a.shape == arc_b.shape == shape
        assert np.array_equal(arc_a, arc_b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_tree_rejects_nan_naming_the_cell(self, backend):
        """NaN has no place in the sweep order: refused up front, by flat
        index, whether or not another maximum exists."""
        impl = kernel_impl("topology.merge_tree", backend)
        ramp = np.arange(24.0).reshape(4, 3, 2)
        ramp[3, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"flat index 23 is NaN"):
            impl(ramp)
        noisy = np.random.default_rng(20).uniform(0, 1, (4, 3, 2))
        noisy[1, 2, 0] = np.nan
        noisy[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"flat index 10 is NaN"):
            impl(noisy, np.arange(24).reshape(4, 3, 2) + 100)

    def test_graph_merge_tree_rejects_nan_identically(self):
        messages = []
        for impl in both("topology.graph_merge_tree"):
            with pytest.raises(ValueError, match="vertex 1 is NaN") as err:
                impl({2: 0.5, 1: float("nan"), 0: 1.0, 7: float("nan")},
                     [(0, 1), (1, 2)])
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_infinities_are_ordinary_values(self):
        field = np.random.default_rng(21).uniform(0, 1, (5, 4, 3))
        field[0, 0, 0] = field[4, 3, 2] = np.inf
        field[2, 2, 1] = -np.inf
        ref, fast = both("topology.merge_tree")
        tree_a, arc_a = ref(field)
        tree_b, arc_b = fast(field)
        assert_trees_identical(tree_a, tree_b)
        assert np.array_equal(arc_a, arc_b)
        values = {i: float(v) for i, v in enumerate(field.ravel()[:12])}
        edges = [(i, i + 1) for i in range(11)]
        ref, fast = both("topology.graph_merge_tree")
        assert_trees_identical(ref(values, edges), fast(values, edges))

    def test_merge_tree_with_id_map(self):
        rng = np.random.default_rng(17)
        field = rng.uniform(0, 1, (5, 6))
        ids = (np.arange(30) * 13 + 101).reshape(5, 6)
        ref, fast = both("topology.merge_tree")
        tree_a, arc_a = ref(field, ids)
        tree_b, arc_b = fast(field, ids)
        assert_trees_equal(tree_a, tree_b)
        assert np.array_equal(arc_a, arc_b)

    def test_graph_merge_tree_identical(self):
        rng = np.random.default_rng(18)
        n = 80
        ids = [int(i * 7 + 3) for i in range(n)]
        values = {i: float(v)
                  for i, v in zip(ids, rng.integers(0, 10, n))}
        edges = [(ids[int(a)], ids[int(b)])
                 for a, b in rng.integers(0, n, (200, 2)) if a != b]
        ref, fast = both("topology.graph_merge_tree")
        assert_trees_identical(ref(dict(values), list(edges)),
                               fast(dict(values), list(edges)))

    def test_graph_merge_tree_unknown_vertex_identical(self):
        for impl in both("topology.graph_merge_tree"):
            with pytest.raises(KeyError, match=r"edge \(1,9\) references"):
                impl({0: 1.0, 1: 2.0}, [(0, 1), (1, 9), (8, 0)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_distributed_pipeline_identical(self, backend):
        shape = (12, 10, 8)
        rng = np.random.default_rng(19)
        field = _plateau_field(rng, shape)
        decomp = BlockDecomposition3D(shape, (2, 2, 2))
        with use_backend("reference"):
            tree_ref, bts_ref = distributed_merge_tree(field, decomp)
        with use_backend(backend):
            tree, bts = distributed_merge_tree(field, decomp)
        assert_trees_equal(tree_ref, tree)
        assert len(bts_ref) == len(bts)


# ---------------------------------------------------------------------------
# the sweep core against the reference sweep, generated inputs
# ---------------------------------------------------------------------------


def _generated_field(regime, shape, seed):
    """Smooth (a few maxima, long ascents), two-to-eight-level plateaus
    (ties everywhere) or white noise (nearly every vertex a candidate)."""
    rng = np.random.default_rng(seed)
    if regime == "noise":
        return rng.uniform(0, 1, shape)
    if regime == "plateau":
        return np.floor(rng.uniform(0, 1, shape)
                        * rng.integers(2, 9)).astype(np.float64)
    coords = np.indices(shape).astype(np.float64)
    field = np.zeros(shape)
    for _ in range(int(rng.integers(1, 4))):
        centre = [rng.uniform(0, extent) for extent in shape]
        d2 = sum((coords[a] - centre[a]) ** 2 for a in range(len(shape)))
        field += rng.uniform(0.5, 1.5) * np.exp(-d2 / rng.uniform(2, 12))
    return field


_SHAPES = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
_REGIMES = st.sampled_from(["smooth", "plateau", "noise"])


def _generated_ids(shape, seed):
    """Distinct ids in no order at all, negatives included."""
    n = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    return (rng.permutation(3 * n)[:n] - n).reshape(shape)


class TestSweepCoreDifferential:
    @settings(max_examples=150, deadline=None)
    @given(shape=_SHAPES, regime=_REGIMES, seed=st.integers(0, 2**16),
           with_ids=st.booleans())
    def test_grid_kernel(self, shape, regime, seed, with_ids):
        field = _generated_field(regime, shape, seed)
        ids = _generated_ids(shape, seed + 1) if with_ids else None
        ref, fast = both("topology.merge_tree")
        tree_a, arc_a = ref(field, ids)
        tree_b, arc_b = fast(field, ids)
        assert_trees_identical(tree_a, tree_b)
        assert arc_a.dtype == arc_b.dtype and arc_a.shape == arc_b.shape
        assert np.array_equal(arc_a, arc_b)

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.sampled_from([(3, 2, 2), (2, 3, 2), (5,),
                                            (2, 2), ()]),
                           min_size=1, max_size=6),
           regime=_REGIMES, seed=st.integers(0, 2**16),
           with_ids=st.booleans())
    def test_stacked_kernel_is_the_single_kernel_per_field(
            self, shapes, regime, seed, with_ids):
        fields = [_generated_field(regime, shape, seed + k)
                  for k, shape in enumerate(shapes)]
        ids = ([_generated_ids(shape, seed + 100 + k)
                for k, shape in enumerate(shapes)] if with_ids else None)
        single = kernel_impl("topology.merge_tree", "reference")
        for impl in both("topology.merge_trees"):
            for k, (tree, arc) in enumerate(impl(fields, ids)):
                want_tree, want_arc = single(fields[k],
                                             ids[k] if ids else None)
                assert_trees_identical(want_tree, tree)
                assert arc.dtype == want_arc.dtype
                assert arc.shape == shapes[k]
                assert np.array_equal(arc, want_arc)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 3.0),
           regime=st.sampled_from(["plateau", "noise", "chain"]),
           seed=st.integers(0, 2**16))
    def test_graph_kernel(self, n, density, regime, seed):
        """Random multigraphs (parallel edges and self-loops included)
        and, as ``chain``, the long monotone paths boundary trees are
        made of, with a few cross links."""
        rng = np.random.default_rng(seed)
        ids = (rng.permutation(5 * n)[:n] - n).tolist()
        if regime == "noise":
            vals = rng.uniform(0, 1, n)
        else:
            vals = rng.integers(0, int(rng.integers(2, 9)), n).astype(float)
        values = dict(zip(ids, vals.tolist()))
        m = int(density * n)
        edges = [(ids[int(a)], ids[int(b)])
                 for a, b in rng.integers(0, n, (m, 2))]
        if regime == "chain":
            edges += list(zip(ids, ids[1:]))
        ref, fast = both("topology.graph_merge_tree")
        assert_trees_identical(ref(dict(values), list(edges)),
                               fast(dict(values), list(edges)))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(2, 7), st.integers(2, 6),
                           st.integers(2, 5)),
           data=st.data(), regime=_REGIMES, seed=st.integers(0, 2**16))
    def test_blocks_and_glue(self, shape, data, regime, seed):
        """In situ over the stacked blocks (uneven splits: several
        stacks), in transit through the graph sweep — which adds nodes
        in sweep order where the streaming glue adds them as streamed,
        so the glued trees compare as mappings."""
        procs = tuple(data.draw(st.integers(1, min(n, 3))) for n in shape)
        decomp = BlockDecomposition3D(shape, procs)
        field = _generated_field(regime, shape, seed)
        with use_backend("reference"):
            tree_ref, bts_ref = distributed_merge_tree(field, decomp)
        with use_backend("numpy"):
            tree, bts = distributed_merge_tree(field, decomp)
        assert_trees_equal(tree_ref, tree)
        for a, b in zip(bts_ref, bts):
            assert list(a.nodes.items()) == list(b.nodes.items())
            assert a.edges == b.edges
            assert a.boundary_ids == b.boundary_ids


class TestMergeTreeKernelErrors:
    """What the full-sweep kernel refused, the sweep core refuses with
    the same words, for one field or the first offender of several."""

    CASES = {
        "empty": (np.zeros((3, 0, 2)), None,
                  "cannot compute the merge tree of an empty field"),
        "nan": (np.array([[0.5, np.nan], [np.nan, 1.0]]), None,
                "field value at flat index 1 is NaN"),
        "id size": (np.arange(6.0).reshape(2, 3), np.arange(5),
                    "id_map size 5 != field size 6"),
        "duplicate ids": (np.arange(6.0).reshape(2, 3),
                          np.array([[4, 9, 2], [7, 4, 0]]),
                          "id_map must assign distinct ids"),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_field(self, backend, case):
        field, ids, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            kernel_impl("topology.merge_tree", backend)(field, ids)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_offender_of_several(self, backend, case):
        field, ids, message = self.CASES[case]
        good = np.arange(6.0).reshape(2, 3)
        late = self.CASES["nan" if case != "nan" else "empty"]
        with pytest.raises(ValueError, match=message):
            kernel_impl("topology.merge_trees", backend)(
                [good, field, late[0]], [None, ids, late[1]])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_dimensional_field(self, backend):
        tree, arc = kernel_impl("topology.merge_tree", backend)(
            np.float64(2.5), np.array(41))
        assert list(tree.value.items()) == [(41, 2.5)]
        assert tree.parent == {41: None}
        assert arc.shape == () and int(arc) == 41


def test_neighbor_tables_are_built_once_across_steps_of_an_uneven_split():
    """Eight block shapes and the global one are nine tables; two steps
    must not build any of them twice."""
    from repro.analysis.topology.local_tree import compute_boundary_trees
    from repro.analysis.topology.distributed import (
        block_boundary_mask,
        global_id_array,
    )
    from repro.sim import DecomposedS3D, LiftedFlameCase, StructuredGrid3D

    shape = (9, 7, 5)
    decomp = BlockDecomposition3D(shape, (2, 2, 2))
    assert len(decomp.shape_groups()) == 8
    solver = DecomposedS3D(LiftedFlameCase(StructuredGrid3D(shape)), decomp)
    ids = global_id_array(shape)
    block_ids = [ids[b.slices] for b in decomp.blocks()]
    masks = [block_boundary_mask(b, shape) for b in decomp.blocks()]
    nb._neighbor_table.cache_clear()
    with use_backend("numpy"):
        for _ in range(2):
            solver.step()
            compute_boundary_trees([p["T"] for p in solver.parts],
                                   block_ids, masks)
            compute_merge_tree(solver.assemble()["T"])
    assert nb._neighbor_table.cache_info().misses == 9


# ---------------------------------------------------------------------------
# property-based: union-find and moments
# ---------------------------------------------------------------------------


def _insert(items, place, new):
    """``items`` with ``new`` put first, in the middle or last."""
    at = {"first": 0, "middle": len(items) // 2, "last": len(items)}[place]
    return items[:at] + [new] + items[at:]


class TestHypothesis:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["duplicate", "self-edge", "undeclared"]),
           place=st.sampled_from(["first", "middle", "last"]),
           seed=st.integers(0, 2**16),
           proc_grid=st.sampled_from([(2, 1, 1), (2, 2, 1), (2, 2, 2),
                                      (3, 2, 1)]))
    def test_glue_batch_raises_what_the_streaming_glue_raises(
            self, kind, place, seed, proc_grid):
        """One offender, placed first, in the middle or last of the
        stream: same exception type, same message, on both backends."""
        from repro.analysis.topology.distributed import (
            compute_block_boundary_trees,
            cross_block_edges,
        )
        from repro.analysis.topology.local_tree import BoundaryTree

        shape = (6, 5, 4)
        decomp = BlockDecomposition3D(shape, proc_grid)
        field = _plateau_field(np.random.default_rng(seed), shape)
        with use_backend("reference"):
            bts = compute_block_boundary_trees(field, decomp)
        cross = cross_block_edges(decomp)
        # Which subtree the offender rides in: the earliest that can hold
        # it, the middle one, the last one (or the cross edges).
        k = {"first": 1 if kind == "duplicate" else 0,
             "middle": len(bts) // 2, "last": len(bts) - 1}[place]
        victim = bts[k]
        declared = next(iter(bts[0].nodes))
        if kind == "duplicate":
            nodes = dict(_insert(list(victim.nodes.items()), place,
                                 (declared, 0.25)))
            bts[k] = BoundaryTree(nodes, victim.edges, victim.boundary_ids)
        else:
            edge = ((declared, declared) if kind == "self-edge"
                    else (declared, 10**9))
            if place == "last":
                cross = cross + [edge]
            else:
                bts[k] = BoundaryTree(victim.nodes,
                                      _insert(victim.edges, place, edge),
                                      victim.boundary_ids)
        raised = []
        for impl in both("topology.glue_batch"):
            with pytest.raises((ValueError, KeyError)) as err:
                impl(list(bts), list(cross))
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7),
                    min_size=1, max_size=48))
    def test_merge_tree_union_find_property(self, levels):
        field = np.asarray(levels, dtype=np.float64)
        ref, fast = both("topology.merge_tree")
        tree_a, arc_a = ref(field)
        tree_b, arc_b = fast(field)
        assert_trees_equal(tree_a, tree_b)
        assert np.array_equal(arc_a, arc_b)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                       allow_nan=False, width=32),
                             min_size=1, max_size=20),
                    min_size=1, max_size=12))
    def test_moments_property(self, rows):
        blocks = [np.asarray(r, dtype=np.float64) for r in rows]
        ref_learn, fast_learn = both("statistics.learn_blocks")
        ref_merge, fast_merge = both("statistics.merge_moments")
        accs_a = ref_learn([b.copy() for b in blocks])
        accs_b = fast_learn([b.copy() for b in blocks])
        for x, y in zip(accs_a, accs_b):
            assert np.array_equal(x.pack(), y.pack())
        assert np.array_equal(ref_merge(accs_a).pack(),
                              fast_merge(accs_b).pack())


# ---------------------------------------------------------------------------
# full functional pipeline parity under dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_functional_pipeline_digest_identical(backend):
    from repro.core import HybridFramework
    from repro.sim import LiftedFlameCase, StructuredGrid3D

    shape = (12, 8, 6)

    def run_once():
        fw = HybridFramework(LiftedFlameCase(StructuredGrid3D(shape),
                                             seed=3),
                             BlockDecomposition3D(shape, (2, 2, 1)),
                             n_buckets=2)
        return fw.run(3)

    with use_backend("reference"):
        expected = run_once()
    with use_backend(backend):
        got = run_once()
    assert _digest(got) == _digest(expected)


def _digest(result):
    """A stable, exact fingerprint of whatever the framework returned.

    Private attributes are skipped: they are derived bookkeeping (e.g.
    ``MergeTree._children`` adjacency order, which the streaming and
    batch glues populate in different insertion orders while producing
    the identical node/arc structure held in the public fields).
    """
    import json

    def norm(obj):
        if isinstance(obj, np.ndarray):
            return ["nd", obj.shape, obj.dtype.str, obj.tobytes().hex()]
        if isinstance(obj, np.generic):
            return obj.item()
        if isinstance(obj, dict):
            return {str(k): norm(v) for k, v in sorted(obj.items(),
                                                       key=lambda kv:
                                                       str(kv[0]))}
        if isinstance(obj, (list, tuple)):
            return [norm(v) for v in obj]
        if hasattr(obj, "__dict__"):
            return {k: norm(v) for k, v in sorted(vars(obj).items())
                    if not k.startswith("_")}
        return repr(obj)

    return json.dumps(norm(result), sort_keys=True, default=repr)

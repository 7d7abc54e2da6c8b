"""Bit-exact equivalence of every kernel's two bodies.

Every ``@kernel`` has a vectorized body, the code each call runs, and a
pure-python reference body beside it, its oracle. The two must produce
*identical* outputs — not approximately equal: merge trees, moment
accumulators and collective folds are compared with ``==`` /
``np.array_equal``, never with tolerances. Suites parametrized over
``["reference", "numpy"]`` exercise the switch itself, and inputs are
chosen on both sides of the vectorized bodies' regime gates so their
array paths and their reference fallbacks go through the same
assertions.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics.autocorrelation import AutocorrelationLearner
from repro.analysis.statistics.moments import (
    LEARN_BLOCK_MAX_ELEMS,
    MomentAccumulator,
    merge_accumulators,
    moment_merge_op,
)
from repro.analysis.topology import merge_tree as mt
from repro.analysis.topology.distributed import distributed_merge_tree
from repro.analysis.topology.merge_tree import compute_merge_tree
from repro.backend import (
    get_backend,
    kernel_impl,
    kernel_names,
    set_backend,
    use_backend,
)
from repro.des import Engine
from repro.vmpi import BlockDecomposition3D
from repro.vmpi.comm import _pairwise_reduce

BACKENDS = ["reference", "numpy"]


@pytest.fixture(autouse=True)
def _clean_backend_state():
    """Isolate the switch so suites cannot leak into each other."""
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
# the switch
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_both_backends_known_and_available(self):
        for name in BACKENDS:
            with use_backend(name) as active:
                assert active == get_backend() == name
            assert kernel_impl("topology.merge_tree", name)

    def test_default_is_the_vectorized_body(self):
        assert get_backend() == "numpy"
        assert kernel_impl("topology.merge_tree") is \
            compute_merge_tree.__wrapped__
        assert kernel_impl("topology.merge_tree", "reference") is \
            compute_merge_tree.reference

    def test_use_backend_restores_previous(self):
        set_backend("numpy")
        with use_backend("reference") as active:
            assert active == "reference"
        assert get_backend() == "numpy"

    def test_unknown_backend_is_refused(self):
        """A typo raises every time, not once per process, and changes
        nothing: the switch stays where it was."""
        set_backend("reference")
        for typo in ("nmupy", "nmupy", "Reference", ""):
            with pytest.raises(ValueError, match="'numpy' and 'reference'"):
                set_backend(typo)
            with pytest.raises(ValueError, match="'numpy' and 'reference'"):
                with use_backend(typo):
                    pass
            with pytest.raises(ValueError, match="'numpy' and 'reference'"):
                kernel_impl("topology.merge_tree", typo)
            assert get_backend() == "reference"

    def test_kernel_names_cover_the_four_hot_paths(self):
        """Two hot paths behind the seam: DES dispatch left it (one
        engine) and so did the collectives' fold and the many-accumulator
        merge (a plain scalar tree fold, faster at every rank count the
        callers use). The test id is pinned by the tier-1 floor list."""
        names = kernel_names()
        assert len(names) == 8
        assert {n.split(".")[0] for n in names} == {"statistics", "topology"}
        assert "topology.merge_tree" in names
        assert "statistics.merge_packed_moments" in names

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
    """``VirtualComm``'s pairwise fold, and the moment merges that share
    its pairing."""

    def test_ndarray_reduce_fallback_path(self):
        rng = np.random.default_rng(5)
        v = [rng.uniform(-2, 2, 16) for _ in range(7)]
        expected = (((v[0] + v[1]) + (v[2] + v[3]))
                    + ((v[4] + v[5]) + v[6]))
        assert np.array_equal(_pairwise_reduce(v, np.add), expected)

    def test_object_reduce_fallback(self):
        def cat(a, b):
            return a + b

        vals = [f"<{i}>" for i in range(13)]
        assert _pairwise_reduce(list(vals), cat) == "".join(vals)

    def test_moment_merge_route(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 9):
            accs = [MomentAccumulator.from_data(rng.uniform(0, 1, 50))
                    for _ in range(n)]
            folded = _pairwise_reduce(list(accs), moment_merge_op)
            assert np.array_equal(folded.pack(),
                                  merge_accumulators(accs).pack())


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
        assert (m <= LEARN_BLOCK_MAX_ELEMS) == (m == 16)
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

    def _packed_fold_equals_scalar_fold(self, accs):
        """The packed kernel's array fold over one variable lands on the
        bits of the scalar tree fold, ``merge_accumulators``."""
        scalar = merge_accumulators(list(accs))
        for name in BACKENDS:
            (packed,) = kernel_impl("statistics.merge_packed_moments", name)(
                [a.pack() for a in accs], 1)
            assert np.array_equal(packed.pack(), scalar.pack())

    def test_merge_moments_identical(self):
        self._packed_fold_equals_scalar_fold(
            [MomentAccumulator.from_data(b) for b in self._blocks(10, 31, 40)])

    def test_merge_moments_with_empty_accumulator(self):
        self._packed_fold_equals_scalar_fold(
            [MomentAccumulator(), *(MomentAccumulator.from_data(b)
                                    for b in self._blocks(11, 5, 9))])

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
    mt._neighbor_table.cache_clear()
    with use_backend("numpy"):
        for _ in range(2):
            solver.step()
            compute_boundary_trees([p["T"] for p in solver.parts],
                                   block_ids, masks)
            compute_merge_tree(solver.assemble()["T"])
    assert mt._neighbor_table.cache_info().misses == 9


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
        stream: same exception type, same message, in both bodies."""
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
        ref_merge, fast_merge = both("statistics.merge_packed_moments")
        accs_a = ref_learn([b.copy() for b in blocks])
        accs_b = fast_learn([b.copy() for b in blocks])
        for x, y in zip(accs_a, accs_b):
            assert np.array_equal(x.pack(), y.pack())
        (merged_a,) = ref_merge([a.pack() for a in accs_a], 1)
        (merged_b,) = fast_merge([b.pack() for b in accs_b], 1)
        assert np.array_equal(merged_a.pack(), merged_b.pack())


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


# ---------------------------------------------------------------------------
# oracle coverage: every kernel, both bodies, and the switch that reaches
# the reference
# ---------------------------------------------------------------------------


def _packed_moments(rng, ranks, n_vars):
    return [np.concatenate([MomentAccumulator.from_data(
        rng.uniform(0, 1, 12)).pack() for _ in range(n_vars)])
        for _ in range(ranks)]


def _lag_partials(rng, ranks, max_lag):
    partials = []
    for _ in range(ranks):
        learner = AutocorrelationLearner(max_lag)
        for _ in range(max_lag + 2):
            learner.observe(rng.uniform(0, 1, 16))
        partials.append(learner.pack())
    return partials, max_lag


def _glue_inputs(rng):
    from repro.analysis.topology.distributed import (
        compute_block_boundary_trees,
        cross_block_edges,
    )

    decomp = BlockDecomposition3D((6, 5, 4), (2, 1, 1))
    return (compute_block_boundary_trees(rng.uniform(0, 1, (6, 5, 4)),
                                         decomp),
            cross_block_edges(decomp))


def _graph_inputs(rng):
    values = {int(v): float(x) for v, x in
              zip(rng.permutation(40) * 3, rng.uniform(0, 1, 40))}
    ids = sorted(values)
    edges = [(ids[i], ids[j]) for i, j in rng.integers(0, 40, (60, 2))
             if i != j]
    return values, edges


#: Kernel name -> builder of one call's arguments, each on the vectorized
#: body's array path (no reference fallback). One entry per kernel: this
#: table is what keeps every reference body running in tier-1.
ORACLE_CASES = {
    "statistics.autocorr_cross_sums": lambda rng: (
        rng.uniform(-2, 2, 64), [rng.uniform(-2, 2, 64) for _ in range(3)]),
    "statistics.autocorr_merge": lambda rng: _lag_partials(rng, 5, 3),
    "statistics.learn_blocks": lambda rng: (
        [rng.uniform(-3, 7, 32) for _ in range(6)],),
    "statistics.merge_packed_moments": lambda rng: (
        _packed_moments(rng, 6, 3), 3),
    "topology.glue_batch": _glue_inputs,
    "topology.graph_merge_tree": _graph_inputs,
    "topology.merge_tree": lambda rng: (rng.uniform(0, 1, (5, 4, 3)),),
    "topology.merge_trees": lambda rng: (
        [rng.uniform(0, 1, s) for s in ((4, 3), (4, 3), (5, 2))],),
}


def _dispatcher(name):
    """The ``@kernel`` wrapper that declares kernel ``name``."""
    import importlib

    from repro.backend import KERNEL_MODULES

    module = importlib.import_module(KERNEL_MODULES[name])
    return next(f for f in vars(module).values()
                if getattr(f, "kernel_name", None) == name)


def _counted(fn, *args):
    """``fn(*args)`` and how often each code object was entered."""
    from collections import Counter

    entered = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            entered[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, entered


def test_oracle_table_covers_every_kernel():
    assert set(ORACLE_CASES) == set(kernel_names())


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_kernel_equals_its_reference_and_the_switch_reaches_it(name):
    args = ORACLE_CASES[name](np.random.default_rng(2012))
    reference, body = both(name)
    bodies = {kernel_impl(k, "numpy").__code__ for k in kernel_names()}
    call = _dispatcher(name)
    assert call.reference is reference

    fast, entered = _counted(call, *args)
    assert (entered[body.__code__], entered[reference.__code__]) == (1, 0)

    with use_backend("reference"):
        oracle, entered = _counted(call, *args)
    assert entered[reference.__code__] == 1
    assert not [c.co_name for c in bodies if entered[c]]
    assert _digest(fast) == _digest(oracle)
    assert _digest(reference(*args)) == _digest(oracle)

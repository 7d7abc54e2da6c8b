"""Tests for the virtual MPI layer: decomposition, communicator, collectives."""

import operator
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.gemini import GeminiNetwork
from repro.vmpi import (
    BlockDecomposition3D,
    VirtualComm,
    allreduce_time,
    bcast_time,
    reduce_time,
)
from repro.vmpi.comm import _pairwise_reduce, payload_bytes


class TestDecomposition:
    def test_paper_4896_core_layout(self):
        """Table I: 16 x 28 x 10 ranks, blocks of 100 x 49 x 43."""
        d = BlockDecomposition3D((1600, 1372, 430), (16, 28, 10))
        assert d.n_ranks == 4480
        for rank in (0, 1234, 4479):
            assert d.block(rank).shape == (100, 49, 43)

    def test_paper_9440_core_layout(self):
        """Table I: 32 x 28 x 10 ranks, blocks of 50 x 49 x 43."""
        d = BlockDecomposition3D((1600, 1372, 430), (32, 28, 10))
        assert d.n_ranks == 8960
        assert d.block(0).shape == (50, 49, 43)

    def test_rank_coords_roundtrip(self):
        d = BlockDecomposition3D((40, 30, 20), (4, 3, 2))
        coords = [d.coords_of_rank(rank) for rank in range(d.n_ranks)]
        assert coords == [(x, y, z) for z in range(2) for y in range(3)
                          for x in range(4)]

    def test_blocks_tile_domain_exactly(self):
        d = BlockDecomposition3D((17, 11, 7), (3, 2, 2))  # uneven split
        cover = np.zeros((17, 11, 7), dtype=int)
        for b in d.blocks():
            cover[b.slices] += 1
        assert np.all(cover == 1)

    def test_blocks_built_on_first_use_then_shared(self):
        """Constructing only validates (the replay workloads build
        thousands-of-ranks decompositions for that alone); the frozen
        blocks are built once and handed out in fresh lists."""
        d = BlockDecomposition3D((17, 11, 7), (3, 2, 2))
        assert d._blocks is None
        first, second = d.blocks(), d.blocks()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert [b.rank for b in d.blocks()] == list(range(12))
        assert d.blocks() == [d.block(r) for r in range(12)]

    def test_scatter_gather_roundtrip(self):
        d = BlockDecomposition3D((12, 10, 8), (3, 2, 2))
        field = np.arange(12 * 10 * 8, dtype=np.float64).reshape(12, 10, 8)
        parts = d.scatter(field)
        np.testing.assert_array_equal(d.gather(parts), field)

    def test_scatter_gather_with_trailing_axis(self):
        d = BlockDecomposition3D((6, 6, 6), (2, 1, 3))
        field = np.random.default_rng(0).random((6, 6, 6, 4))
        np.testing.assert_array_equal(d.gather(d.scatter(field)), field)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            BlockDecomposition3D((4, 4, 4), (5, 1, 1))
        with pytest.raises(ValueError):
            BlockDecomposition3D((4, 4), (1, 1))  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            BlockDecomposition3D((4, 4, 4), (0, 1, 1))

    @given(st.tuples(st.integers(2, 30), st.integers(2, 30), st.integers(2, 30)),
           st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    @settings(max_examples=30, deadline=None)
    def test_property_tiling(self, shape, grid):
        if any(p > n for n, p in zip(shape, grid)):
            return
        d = BlockDecomposition3D(shape, grid)
        total = sum(np.prod(b.shape) for b in d.blocks())
        assert total == shape[0] * shape[1] * shape[2]


class TestPairwiseReduce:
    def test_matches_serial_sum(self):
        vals = list(range(17))
        assert _pairwise_reduce(vals, operator.add) == sum(vals)

    def test_single_element(self):
        assert _pairwise_reduce([5], operator.add) == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _pairwise_reduce([], operator.add)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_property_sum_close(self, vals):
        assert _pairwise_reduce(vals, operator.add) == pytest.approx(
            sum(vals), rel=1e-9, abs=1e-6)


class TestPayloadBytes:
    def test_numpy_array(self):
        assert payload_bytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes(self):
        assert payload_bytes(b"abcd") == 4

    def test_generic_object_positive(self):
        assert payload_bytes({"a": 1}) > 0

    def test_an_nbytes_attribute_is_not_an_array(self):
        """Only an ndarray is costed at its ``nbytes``: any other object
        that carries one (a boundary tree does) at its pickle size."""
        payload = SimpleNamespace(nbytes=1 << 30)
        assert payload_bytes(payload) == len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class TestVirtualComm:
    def test_allreduce_sum_arrays(self):
        comm = VirtualComm(8)
        parts = [np.full(3, float(r)) for r in range(8)]
        out = comm.allreduce(parts, np.add)
        assert len(out) == 8
        np.testing.assert_allclose(out[0], np.full(3, sum(range(8))))

    def test_reduce_root(self):
        comm = VirtualComm(5)
        assert comm.reduce([1, 2, 3, 4, 5], operator.add) == 15

    def test_collective_wrong_length_raises(self):
        comm = VirtualComm(3)
        with pytest.raises(ValueError):
            comm.allreduce([1, 2], operator.add)

    def test_tracker_records_costs(self):
        comm = VirtualComm(16)
        tracker = comm.tracker
        comm.allreduce([np.zeros(100)] * 16, np.add)
        comm.reduce([np.zeros(10)] * 16, np.add)
        assert tracker.count("allreduce") == 1
        assert tracker.count("reduce") == 1
        assert tracker.total_time > 0
        assert sum(r.nbytes for r in tracker.records) > 0


class TestCollectiveCosts:
    def setup_method(self):
        self.net = GeminiNetwork()

    def test_single_rank_costs_nothing(self):
        for fn in (bcast_time, reduce_time, allreduce_time):
            assert fn(self.net, 1, 1024) == 0.0

    def test_costs_grow_with_ranks(self):
        for fn in (bcast_time, allreduce_time):
            assert fn(self.net, 64, 1024) > fn(self.net, 4, 1024)

    def test_costs_grow_with_bytes(self):
        for fn in (bcast_time, allreduce_time):
            assert fn(self.net, 16, 10**6) > fn(self.net, 16, 10**3)

    def test_bcast_log_scaling(self):
        t64 = bcast_time(self.net, 64, 8)
        t2 = bcast_time(self.net, 2, 8)
        assert t64 == pytest.approx(6 * t2, rel=0.01)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bcast_time(self.net, 0, 10)
        with pytest.raises(ValueError):
            allreduce_time(self.net, 4, -1)

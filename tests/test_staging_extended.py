"""Tests for DataSpaces extensions (version queries, GC) and the torus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Engine
from repro.machine import TorusTopology
from repro.staging import DataSpaces
from repro.transport import DartTransport


@pytest.fixture
def space():
    eng = Engine()
    return DataSpaces(eng, DartTransport(eng), n_servers=2)


class TestVersionQueries:
    def test_range_query_ascending(self, space):
        for v in (5, 1, 3, 9):
            space.put("model", v, {"v": v})
        out = space.query("model", 2, 8)
        assert [v for v, _ in out] == [3, 5]
        assert out[0][1] == {"v": 3}

    def test_empty_range_raises(self, space):
        with pytest.raises(ValueError):
            space.query("model", 5, 2)

    def test_query_unknown_name_empty(self, space):
        assert space.query("nope", 0, 10) == []

    def test_query_skips_geometric_puts(self, space):
        space.put("field", 1, np.ones((2, 2)), bounds=((0, 2), (0, 2)))
        space.put("field", 2, "plain")
        out = space.query("field", 0, 10)
        assert out == [(2, "plain")]


class TestGarbageCollection:
    def test_gc_keeps_latest(self, space):
        for v in range(10):
            space.put("x", v, v)
        removed = space.gc_versions("x", keep_latest=3)
        assert removed == 7
        assert space.versions("x") == [7, 8, 9]

    def test_gc_all(self, space):
        for v in range(4):
            space.put("x", v, v)
        assert space.gc_versions("x", keep_latest=0) == 4
        assert space.versions("x") == []

    def test_gc_noop_when_few(self, space):
        space.put("x", 0, 0)
        assert space.gc_versions("x", keep_latest=5) == 0

    def test_gc_validation(self, space):
        with pytest.raises(ValueError):
            space.gc_versions("x", keep_latest=-1)

    def test_stored_bytes_shrink_after_gc(self, space):
        for v in range(8):
            space.put("big", v, np.zeros(1000))
        before = space.stored_bytes()
        space.gc_versions("big", keep_latest=1)
        after = space.stored_bytes()
        assert after < before / 4
        assert after >= 8000


class TestTorus:
    def test_jaguar_capacity(self):
        t = TorusTopology.jaguar()
        assert t.n_nodes >= 18688

    def test_coords_roundtrip(self):
        t = TorusTopology((4, 5, 3))
        for node in range(t.n_nodes):
            assert t.node_at(t.coords_of(node)) == node

    def test_hops_symmetric_and_zero_diagonal(self):
        t = TorusTopology((5, 4, 3))
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.integers(0, t.n_nodes, 2)
            assert t.hops(int(a), int(b)) == t.hops(int(b), int(a))
        assert t.hops(7, 7) == 0

    def test_wraparound_shortcut(self):
        t = TorusTopology((10, 1, 1))
        # node 0 to node 9: 1 hop through the wraparound, not 9
        assert t.hops(0, 9) == 1

    def test_diameter_bound(self):
        t = TorusTopology((6, 4, 8))
        assert t.diameter == 3 + 2 + 4
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.integers(0, t.n_nodes, 2)
            assert t.hops(int(a), int(b)) <= t.diameter

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_property_triangle_inequality(self, x, y, z):
        t = TorusTopology((x, y, z))
        rng = np.random.default_rng(x * 100 + y * 10 + z)
        n = t.n_nodes
        a, b, c = (int(v) for v in rng.integers(0, n, 3))
        assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 1, 1))
        t = TorusTopology((2, 2, 2))
        with pytest.raises(IndexError):
            t.coords_of(99)

    def test_hops_feed_network_model(self):
        """Far nodes pay more wire latency via the hops parameter."""
        from repro.machine import GeminiNetwork
        t = TorusTopology.jaguar()
        net = GeminiNetwork()
        near = net.transfer_time(1024, hops=t.hops(0, 1))
        far = net.transfer_time(1024, hops=t.diameter)
        assert far > near

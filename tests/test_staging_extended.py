"""Tests for the torus topology."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import TorusTopology


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

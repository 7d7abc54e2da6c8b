"""Tests for machine specs, the Gemini network model, and the Lustre model."""

import pytest
from hypothesis import given, strategies as st

from repro.machine import (
    GeminiNetwork,
    LustreModel,
    MachineSpec,
    NodeSpec,
    Protocol,
    jaguar_xk6,
)
from repro.util.units import GB, KB, TB


class TestNodeSpec:
    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0, memory_bytes=GB, core_gflops=1.0)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=1, memory_bytes=0, core_gflops=1.0)


class TestJaguar:
    def test_paper_reported_figures(self):
        """§V: 18,688 nodes, 16 cores each, ~600 TB total memory."""
        m = jaguar_xk6()
        assert m.n_nodes == 18688
        assert m.node.cores == 16
        assert m.total_cores == 18688 * 16
        assert 500 * TB < m.total_memory_bytes < 700 * TB

    def test_allocation_validation(self):
        m = jaguar_xk6()
        m.validate_allocation(4896)
        m.validate_allocation(9440)
        with pytest.raises(ValueError):
            m.validate_allocation(m.total_cores + 1)
        with pytest.raises(ValueError):
            m.validate_allocation(0)


class TestGeminiNetwork:
    def test_protocol_selection_by_size(self):
        net = GeminiNetwork()
        assert net.select_protocol(100) is Protocol.SMSG
        assert net.select_protocol(net.smsg_max_bytes) is Protocol.SMSG
        assert net.select_protocol(net.smsg_max_bytes + 1) is Protocol.BTE
        # transfer_time without a protocol picks the same one inline.
        for n in (0, 100, net.smsg_max_bytes, net.smsg_max_bytes + 1, GB):
            assert net.transfer_time(n) == net.transfer_time(
                n, net.select_protocol(n))

    def test_negative_size_raises(self):
        net = GeminiNetwork()
        with pytest.raises(ValueError):
            net.select_protocol(-1)
        with pytest.raises(ValueError):
            net.transfer_time(-1)

    def test_small_message_latency_dominated(self):
        net = GeminiNetwork()
        t = net.transfer_time(8)
        assert t == pytest.approx(net.smsg_latency, rel=0.01)

    def test_large_transfer_bandwidth_dominated(self):
        net = GeminiNetwork()
        t = net.transfer_time(GB)
        assert t == pytest.approx(GB / net.bte_bandwidth, rel=0.01)

    def test_explicit_protocol_override(self):
        net = GeminiNetwork()
        smsg = net.transfer_time(64 * KB, Protocol.SMSG)
        bte = net.transfer_time(64 * KB, Protocol.BTE)
        assert smsg != bte

    def test_crossover_is_consistent(self):
        """At the crossover size the two protocols cost the same."""
        net = GeminiNetwork()
        n = net.crossover_bytes()
        assert n > 0
        smsg = net.smsg_latency + n / net.smsg_bandwidth
        bte = net.bte_setup + n / net.bte_bandwidth
        assert smsg == pytest.approx(bte, rel=1e-9)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_time_monotone_in_size(self, n):
        net = GeminiNetwork()
        assert net.transfer_time(n + 1024) >= net.transfer_time(n) or (
            # protocol switch can only help, never hurt, beyond crossover
            net.select_protocol(n) != net.select_protocol(n + 1024)
        )

    def test_hops_add_latency(self):
        net = GeminiNetwork()
        assert net.transfer_time(100, hops=10) > net.transfer_time(100)


class TestLustre:
    def test_table1_calibration(self):
        """Table I: 98.5 GB reads in ~6.56 s, writes in ~3.28 s."""
        fs = LustreModel()
        data = int(98.5 * GB)
        assert fs.read_time(data, n_clients=4480) == pytest.approx(6.56, rel=0.02)
        assert fs.write_time(data, n_clients=4480) == pytest.approx(3.28, rel=0.02)

    def test_core_count_independence(self):
        """Table I note: times do not depend on core count once saturated."""
        fs = LustreModel()
        data = int(98.5 * GB)
        t1 = fs.read_time(data, n_clients=4480)
        t2 = fs.read_time(data, n_clients=8960)
        assert t1 == pytest.approx(t2, rel=1e-6)

    def test_few_clients_are_client_limited(self):
        fs = LustreModel()
        data = int(10 * GB)
        assert fs.read_time(data, n_clients=1) > fs.read_time(data, n_clients=4)

    def test_invalid_inputs(self):
        fs = LustreModel()
        with pytest.raises(ValueError):
            fs.read_time(-1, 1)
        with pytest.raises(ValueError):
            fs.write_time(100, 0)
        with pytest.raises(ValueError):
            LustreModel(n_osts=0)

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=1, max_value=10000))
    def test_write_never_slower_than_half_read_bw_model(self, nbytes, clients):
        """Write bandwidth is calibrated 2x read; times must reflect it."""
        fs = LustreModel()
        assert fs.write_time(nbytes, clients) <= fs.read_time(nbytes, clients) + 1e-12

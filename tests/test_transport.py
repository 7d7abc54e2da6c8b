"""Tests for the DART-like transport layer."""

import numpy as np
import pytest

from repro.des import Engine, Interrupt
from repro.machine.gemini import GeminiNetwork, Protocol
from repro.transport import DartTransport, DataDescriptor
from repro.util.units import MB


@pytest.fixture
def dart():
    eng = Engine()
    return eng, DartTransport(eng)


class TestRegistration:
    def test_register_reports_numpy_bytes(self, dart):
        _eng, t = dart
        payload = np.zeros(1000, dtype=np.float64)
        desc = t.register("node-0", payload)
        assert desc.nbytes == 8000
        assert desc.source_node == "node-0"

    def test_nbytes_override_for_scaled_payloads(self, dart):
        """A small stand-in payload can be charged at full-scale size."""
        _eng, t = dart
        desc = t.register("node-0", np.zeros(8), nbytes=87_020_000)
        assert desc.nbytes == 87_020_000

    def test_release_frees_region(self, dart):
        _eng, t = dart
        desc = t.register("node-0", b"x")
        t.release(desc)
        with pytest.raises(KeyError):
            t.registry.lookup(desc.region_id)

    def test_live_bytes_tracks_scratch_footprint(self, dart):
        _eng, t = dart
        t.register("node-0", np.zeros(100))
        t.register("node-0", np.zeros(100))
        t.register("node-1", np.zeros(100))
        assert t.registry.live_bytes("node-0") == 1600
        assert t.registry.live_bytes() == 2400

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            DataDescriptor(region_id="", source_node="n", nbytes=1)
        with pytest.raises(ValueError):
            DataDescriptor(region_id="r", source_node="n", nbytes=-1)


class TestNotify:
    def test_notify_delivers_after_smsg_latency(self, dart):
        eng, t = dart
        seen = []
        t.notify("scheduler", {"msg": 1}, on_delivery=lambda p: seen.append((eng.now, p)))
        eng.run()
        assert len(seen) == 1
        when, payload = seen[0]
        assert payload == {"msg": 1}
        assert when == pytest.approx(t.network.transfer_time(256))


class TestPull:
    def test_pull_returns_payload_and_times_transfer(self, dart):
        eng, t = dart
        payload = np.arange(MB // 8, dtype=np.float64)
        desc = t.register("sim-0", payload)
        got = []

        def proc():
            data = yield from t.pull(desc, "staging-0")
            got.append((eng.now, data))

        eng.process(proc())
        eng.run()
        when, data = got[0]
        assert data is payload
        assert when == pytest.approx(t.network.transfer_time(MB, Protocol.BTE))
        assert len(t.transfers) == 1
        assert t.transfers[0].protocol is Protocol.BTE

    def test_small_pull_uses_smsg(self, dart):
        eng, t = dart
        desc = t.register("sim-0", b"tiny")

        def proc():
            yield from t.pull(desc, "staging-0")

        eng.process(proc())
        eng.run()
        assert t.transfers[0].protocol is Protocol.SMSG

    def test_pull_releases_by_default(self, dart):
        eng, t = dart
        desc = t.register("sim-0", b"x")

        def proc():
            yield from t.pull(desc, "staging-0")

        eng.process(proc())
        eng.run()
        with pytest.raises(KeyError):
            t.registry.lookup(desc.region_id)

    def test_pull_keep_region(self, dart):
        eng, t = dart
        desc = t.register("sim-0", b"x")

        def proc():
            yield from t.pull(desc, "staging-0", release=False)

        eng.process(proc())
        eng.run()
        assert t.registry.lookup(desc.region_id).pull_count == 1

    def test_pull_unregistered_raises_in_process(self, dart):
        eng, t = dart
        bogus = DataDescriptor(region_id="nope", source_node="sim-0", nbytes=10)

        def proc():
            yield from t.pull(bogus, "staging-0")

        p = eng.process(proc())
        with pytest.raises(KeyError):
            eng.run_until_done(p)

    def test_concurrent_pulls_into_one_node_serialize(self, dart):
        """Destination NIC is a capacity-1 resource: two 1-MB pulls into the
        same staging node take twice the wire time of one."""
        eng, t = dart
        d1 = t.register("sim-0", np.zeros(MB // 8))
        d2 = t.register("sim-1", np.zeros(MB // 8))
        finish = []

        def proc(desc):
            yield from t.pull(desc, "staging-0")
            finish.append(eng.now)

        eng.process(proc(d1))
        eng.process(proc(d2))
        eng.run()
        wire = t.network.transfer_time(MB)
        assert finish[0] == pytest.approx(wire, rel=1e-6)
        assert finish[1] == pytest.approx(2 * wire, rel=1e-6)

    def test_pulls_into_distinct_nodes_overlap(self, dart):
        eng, t = dart
        d1 = t.register("sim-0", np.zeros(MB // 8))
        d2 = t.register("sim-1", np.zeros(MB // 8))
        finish = []

        def proc(desc, dest):
            yield from t.pull(desc, dest)
            finish.append(eng.now)

        eng.process(proc(d1, "staging-0"))
        eng.process(proc(d2, "staging-1"))
        eng.run()
        wire = t.network.transfer_time(MB)
        assert finish == pytest.approx([wire, wire], rel=1e-6)

    def test_bytes_moved_accounting(self, dart):
        eng, t = dart
        for i in range(3):
            desc = t.register(f"sim-{i}", np.zeros(100, dtype=np.float64))

            def proc(d=desc):
                yield from t.pull(d, "staging-0")

            eng.process(proc())
        eng.run()
        assert t.bytes_moved() == 3 * 800

    @pytest.mark.parametrize("late", [False, True],
                             ids=["at-dst-grant", "at-src-grant"])
    def test_busy_channels_follow_an_interrupted_grant(self, dart, late):
        """A puller interrupted while the wake of a channel it was granted
        is still queued hands the channel back through ``Resource.cancel``;
        the kept busy count follows, as it follows every grant and
        release."""
        eng, t = dart
        desc = t.register("sim-0", None, nbytes=MB)
        seen = []

        def busy():
            return t.nic_busy_channels(), sum(
                nic.in_use for nic in t._nics.values())

        def puller():
            try:
                yield from t.pull(desc, "staging-0")
            except Interrupt:
                seen.append(busy())

        def interrupter():
            proc.interrupt()
            yield None

        proc = eng.process(puller())
        if late:  # after the destination grant's wake, before the source's
            eng.process(interrupter())
        else:
            proc.interrupt()
        eng.run()
        assert seen == [(0, 0)]
        assert t.transfers == [] and desc.region_id in t.registry

"""Tests for the DataSpaces-like staging layer: hashing, scheduler, space, buckets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import CostModel
from repro.des import Engine
from repro.staging import DataSpaces, ServiceRing, StagingBucket, TaskDescriptor
from repro.transport import DartTransport


@pytest.fixture
def hash_calls(monkeypatch):
    """Every key ``_stable_hash`` digests while the test runs, ring points
    included: the shared geometry memo starts empty."""
    from repro.staging import hashing

    calls = []
    real = hashing._stable_hash
    monkeypatch.setattr(hashing, "_stable_hash",
                        lambda key: calls.append(key) or real(key))
    hashing._ring_geometry.cache_clear()
    return calls


class TestServiceRing:
    def test_stable_assignment(self):
        ring = ServiceRing(8)
        assert ring.server_for("task-42") == ring.server_for("task-42")

    def test_all_servers_in_range(self):
        ring = ServiceRing(5)
        for i in range(200):
            assert 0 <= ring.server_for(f"key-{i}") < 5

    def test_load_roughly_balanced(self):
        """The paper credits hashing with balancing RPCs over servers."""
        ring = ServiceRing(8, virtual_nodes=128)
        keys = [f"task-{i}" for i in range(8000)]
        hist = ring.load_histogram(keys)
        assert min(hist) > 0
        assert max(hist) / (len(keys) / 8) < 2.0  # no server sees 2x mean

    def test_single_server(self):
        ring = ServiceRing(1)
        assert ring.server_for("anything") == 0

    def test_invalid(self):
        """Errors stay outside the shared-geometry memo: a warm (4, 64)
        entry must not let 4.0 through, and a bad call raises each time."""
        ServiceRing(4)
        for _ in range(2):
            with pytest.raises(TypeError):
                ServiceRing(4.0)
            with pytest.raises(TypeError):
                ServiceRing(4, virtual_nodes=64.0)
            with pytest.raises(TypeError):
                ServiceRing("4")
            with pytest.raises(ValueError):
                ServiceRing(0)
            with pytest.raises(ValueError):
                ServiceRing(2, virtual_nodes=0)

    GOLDEN_KEYS = ([f"region-{i}" for i in range(6)]
                   + [f"topo/t{i}/sim-agg-{i}" for i in range(3)]
                   + ["", "task-42", "ünïcode"])

    def test_golden_assignment(self):
        """Pinned at the pre-sharing implementation: the key -> server
        mapping is part of every replay's RPC counts and shard routing,
        so no refactor of the ring may move it."""
        big = ServiceRing(160)
        assert [big.server_for(k) for k in self.GOLDEN_KEYS] == [
            47, 4, 91, 93, 154, 48, 139, 20, 1, 78, 25, 63]
        hist = big.load_histogram([f"key-{i}" for i in range(1000)])
        assert hist[:12] == [2, 9, 2, 3, 5, 10, 9, 5, 8, 2, 4, 7]
        assert (min(hist), max(hist), sum(hist)) == (1, 14, 1000)
        small = ServiceRing(3, virtual_nodes=16)
        assert [small.server_for(k) for k in self.GOLDEN_KEYS] == [
            0, 1, 1, 0, 2, 1, 1, 1, 2, 1, 1, 2]
        assert small.load_histogram(
            [f"key-{i}" for i in range(1000)]) == [343, 473, 184]

    def test_geometry_built_once_shared_and_immutable(self, hash_calls):
        """The first lookup builds the shape's memo; a second ring of that
        shape looks up through the same read-only views, hashing only
        its key."""
        def make():
            eng = Engine()
            return DataSpaces(eng, DartTransport(eng), n_servers=23)

        first, second = make(), make()
        first.ring.server_for("task-42")
        assert len(hash_calls) == 23 * 64 + 1  # every point, then the key
        hash_calls.clear()
        assert second.ring.server_for("task-42") == first.ring.server_for(
            "task-42")
        assert hash_calls == ["task-42", "task-42"]
        assert second.ring._points is first.ring._points
        for view in second.ring._points:
            with pytest.raises(TypeError):
                view[0] = 0
        # Per-instance state stays per instance.
        first.put("model", 0, 1.0)
        assert sum(first.server_rpc_counts) > 0
        assert second.server_rpc_counts == [0] * 23

    def test_construction_hashes_nothing(self, hash_calls):
        """Building a ring, a space or a sharded space, or running a whole
        untraced replay, hashes no ring point and no key: nothing reads
        a ring there."""
        from repro.core.runner import ExperimentConfig, ScaledExperiment
        from repro.staging.hashing import _ring_geometry

        eng = Engine()
        ServiceRing(160)
        ServiceRing(7, virtual_nodes=3)
        DataSpaces(eng, DartTransport(eng), n_servers=256)
        DataSpaces(eng, DartTransport(eng), n_servers=12, n_shards=3)
        result = ScaledExperiment(
            ExperimentConfig.paper_4896()).run_schedule(n_steps=20)
        assert len(result.results) == 60
        assert hash_calls == []
        assert _ring_geometry.cache_info().currsize == 0

    def test_moved_fraction_across_cached_sizes(self):
        """The ~1/(N+1) contract holds between shared geometries of
        neighbouring sizes, whichever was built (and cached) first."""
        keys = [f"region-{i}" for i in range(4000)]
        rings = {n: ServiceRing(n, virtual_nodes=128) for n in (9, 6, 8, 7)}
        for n in (6, 7, 8):
            again = ServiceRing(n, virtual_nodes=128)  # served from the memo
            frac = again.moved_fraction(keys, rings[n + 1])
            assert 0.5 / (n + 1) < frac < 2.0 / (n + 1)
            assert rings[n + 1].moved_fraction(keys, again) == frac

    @given(st.integers(2, 16))
    @settings(max_examples=10, deadline=None)
    def test_property_consistent_across_instances(self, n):
        a, b = ServiceRing(n), ServiceRing(n)
        for i in range(50):
            assert a.server_for(f"k{i}") == b.server_for(f"k{i}")

    def test_load_histogram_counts_every_key(self):
        ring = ServiceRing(6, virtual_nodes=64)
        keys = [f"task-{i}" for i in range(1234)]
        hist = ring.load_histogram(keys)
        assert len(hist) == 6
        assert sum(hist) == len(keys)

    def test_rebalance_add_server_moves_about_one_over_n(self):
        """Growing an N-ring to N+1 relocates ~1/(N+1) of the keys, and
        every relocated key lands on the *new* server — existing servers'
        virtual-node points survive resizing unchanged."""
        keys = [f"region-{i}" for i in range(4000)]
        old = ServiceRing(4, virtual_nodes=128)
        new = ServiceRing(5, virtual_nodes=128)
        frac = old.moved_fraction(keys, new)
        assert 0.5 / 5 < frac < 2.0 / 5
        for k in keys:
            if old.server_for(k) != new.server_for(k):
                assert new.server_for(k) == 4

    def test_rebalance_remove_server_moves_exactly_its_keys(self):
        """Shrinking N -> N-1 moves exactly the removed server's keys
        (≈ 1/N of them); everyone else's assignment is untouched."""
        keys = [f"region-{i}" for i in range(4000)]
        old = ServiceRing(4, virtual_nodes=128)
        new = ServiceRing(3, virtual_nodes=128)
        hist = old.load_histogram(keys)
        assert old.moved_fraction(keys, new) == hist[3] / len(keys)
        for k in keys:
            if old.server_for(k) != 3:
                assert new.server_for(k) == old.server_for(k)

    def test_moved_fraction_identical_rings(self):
        keys = [f"k{i}" for i in range(100)]
        ring = ServiceRing(4)
        assert ring.moved_fraction(keys, ServiceRing(4)) == 0.0
        assert ring.moved_fraction([], ServiceRing(5)) == 0.0


def _make_task(task_id="t0", **kw):
    return TaskDescriptor(task_id=task_id, analysis="test", timestep=0,
                          data=[], **kw)


class TestScheduler:
    def test_bucket_first_then_data(self):
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)
        got = []

        def bucket():
            task = yield sched.bucket_ready("b0")
            got.append((eng.now, task.task_id))

        eng.process(bucket())
        eng.run()
        assert sched.idle_buckets == 1
        sched.data_ready(_make_task("t-late"))
        eng.run()
        assert got == [(0.0, "t-late")]

    def test_data_first_then_bucket(self):
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)
        sched.data_ready(_make_task("t0"))
        assert sched.pending_tasks == 1
        got = []

        def bucket():
            task = yield sched.bucket_ready("b0")
            got.append(task.task_id)

        eng.process(bucket())
        eng.run()
        assert got == ["t0"]
        assert sched.pending_tasks == 0

    def test_fcfs_order(self):
        """Tasks are handed out in data-ready order; buckets in ready order."""
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)
        for i in range(3):
            sched.data_ready(_make_task(f"t{i}"))
        got = []

        def bucket(name):
            task = yield sched.bucket_ready(name)
            got.append((name, task.task_id))

        for name in ("b0", "b1", "b2"):
            eng.process(bucket(name))
        eng.run()
        assert got == [("b0", "t0"), ("b1", "t1"), ("b2", "t2")]

    def test_assignment_records(self):
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)
        sched.data_ready(_make_task("t0"))

        def bucket():
            yield sched.bucket_ready("b0")

        eng.process(bucket())
        eng.run()
        assert len(sched.assignments) == 1
        rec = sched.assignments[0]
        assert rec.task_id == "t0" and rec.bucket == "b0"
        assert rec.assign_time >= rec.data_ready_time

    def test_queue_trace_records_depth(self):
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)
        for i in range(4):
            sched.data_ready(_make_task(f"t{i}"))
        assert max(d for _, d in sched.queue_trace) == 4

    def test_queue_accounting_out_of_order_arrivals(self):
        """pending_tasks / idle_buckets / the peak queue depth stay consistent
        when data-ready and bucket-ready events arrive in bursts and out
        of phase with each other."""
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)

        # Burst of tasks before any bucket exists: the queue absorbs all.
        for i in range(5):
            sched.data_ready(_make_task(f"t{i}"))
        assert sched.pending_tasks == 5
        assert sched.idle_buckets == 0
        assert max(d for _, d in sched.queue_trace) == 5

        # Three late buckets each drain exactly one task.
        for b in range(3):
            sched.bucket_ready(f"b{b}")
        assert sched.pending_tasks == 2
        assert sched.idle_buckets == 0

        # More buckets than remaining tasks: the excess parks as idle.
        for b in range(3, 7):
            sched.bucket_ready(f"b{b}")
        assert sched.pending_tasks == 0
        assert sched.idle_buckets == 2

        # Late tasks match idle buckets directly, never touching the queue.
        sched.data_ready(_make_task("t5"))
        sched.data_ready(_make_task("t6"))
        assert sched.pending_tasks == 0
        assert sched.idle_buckets == 0
        assert max(d for _, d in sched.queue_trace) == 5  # the early peak
        assert len(sched.assignments) == 7

    def test_queue_accounting_alternating_interleave(self):
        """Alternating singles never build a queue deeper than one."""
        eng = Engine()
        from repro.staging.scheduler import TaskScheduler
        sched = TaskScheduler(eng)
        for i in range(6):
            if i % 2 == 0:
                sched.data_ready(_make_task(f"t{i}"))
            else:
                sched.bucket_ready(f"b{i}")
        assert max(d for _, d in sched.queue_trace) == 1
        assert sched.pending_tasks + len(sched.assignments) == 3
        for rec in sched.assignments:
            assert rec.assign_time >= rec.data_ready_time
            assert rec.assign_time >= rec.bucket_ready_time


class TestDataSpacesTupleSpace:
    def setup_method(self):
        self.eng = Engine()
        self.ds = DataSpaces(self.eng, DartTransport(self.eng), n_servers=4)

    def test_rpcs_spread_over_servers(self):
        for i in range(400):
            self.ds.put(f"var-{i}", 0, i)
        assert sum(self.ds.server_rpc_counts) >= 400
        assert min(self.ds.server_rpc_counts) > 0


class TestEndToEndStaging:
    """In-situ submit -> data-ready -> bucket pull -> in-transit compute."""

    def _setup(self, n_buckets=2, cost_model=None):
        eng = Engine()
        transport = DartTransport(eng)
        ds = DataSpaces(eng, transport, n_servers=2, cost_model=cost_model)
        ds.spawn_buckets([f"staging-{i}" for i in range(n_buckets)])
        return eng, transport, ds

    def test_single_task_executes_compute(self):
        eng, _tr, ds = self._setup()
        payload = np.arange(10, dtype=np.float64)
        ds.submit_insitu_result("stats", 0, "sim-0", payload,
                                compute=lambda ps: float(np.sum(ps[0])))
        ds.shutdown_buckets()
        eng.run()
        results = ds.all_results()
        assert len(results) == 1
        assert results[0].value == 45.0
        assert results[0].analysis == "stats"
        assert results[0].total_latency > 0

    def test_tasks_spread_across_buckets(self):
        eng, _tr, ds = self._setup(n_buckets=4)
        for ts in range(8):
            ds.submit_insitu_result("viz", ts, f"sim-{ts % 2}",
                                    np.zeros(1000), compute=lambda ps: len(ps))
        ds.shutdown_buckets()
        eng.run()
        results = ds.all_results()
        assert len(results) == 8
        assert len({r.bucket for r in results}) > 1

    def test_cost_model_charges_compute_time(self):
        model = CostModel("test", {"slow.op": 1.0})  # 1 s per element
        eng, _tr, ds = self._setup(n_buckets=1, cost_model=model)
        ds.submit_insitu_result("topo", 0, "sim-0", b"x",
                                cost_op="slow.op", cost_elements=5)
        ds.shutdown_buckets()
        eng.run()
        r = ds.all_results()[0]
        assert r.finish_time - r.pull_done_time == pytest.approx(5.0, rel=0.01)

    def test_cost_op_without_model_raises(self):
        eng, _tr, ds = self._setup(n_buckets=1, cost_model=None)
        ds.submit_insitu_result("topo", 0, "sim-0", b"x",
                                cost_op="slow.op", cost_elements=5)
        with pytest.raises(RuntimeError, match="no cost model"):
            eng.run()

    def test_grouped_task_pulls_all_regions(self):
        eng, tr, ds = self._setup(n_buckets=1)
        descs = [tr.register(f"sim-{i}", np.full(4, float(i))) for i in range(3)]
        ds.submit_grouped_result("topo", 0, descs,
                                 compute=lambda ps: sum(float(p[0]) for p in ps))
        ds.shutdown_buckets()
        eng.run()
        r = ds.all_results()[0]
        assert r.value == 0.0 + 1.0 + 2.0
        assert r.bytes_pulled == 3 * 32

    def test_pipelining_across_timesteps(self):
        """With 2 buckets, two timesteps' tasks overlap: the second task does
        not wait for the first to finish (temporal multiplexing, §V)."""
        model = CostModel("test", {"glue": 10.0})
        eng, _tr, ds = self._setup(n_buckets=2, cost_model=model)
        for ts in range(2):
            ds.submit_insitu_result("topo", ts, "sim-0", b"x",
                                    cost_op="glue", cost_elements=1)
        ds.shutdown_buckets()
        eng.run()
        results = ds.all_results()
        assert len(results) == 2
        starts = sorted(r.assign_time for r in results)
        # both assigned near t=0, far less than the 10 s compute time apart
        assert starts[1] - starts[0] < 1.0

    def test_serial_bucket_queues_tasks(self):
        """With 1 bucket, the second task waits for the first (no overlap)."""
        model = CostModel("test", {"glue": 10.0})
        eng, _tr, ds = self._setup(n_buckets=1, cost_model=model)
        for ts in range(2):
            ds.submit_insitu_result("topo", ts, "sim-0", b"x",
                                    cost_op="glue", cost_elements=1)
        ds.shutdown_buckets()
        eng.run()
        r0, r1 = ds.all_results()
        assert r1.assign_time >= r0.finish_time

    def test_shutdown_sentinel_is_not_a_result(self):
        eng, _tr, ds = self._setup(n_buckets=3)
        ds.shutdown_buckets()
        eng.run()
        assert ds.all_results() == []

    def test_bucket_shutdown_constant_is_frozen_identity(self):
        assert StagingBucket.SHUTDOWN.task_id == "__shutdown__"

"""Tests for computational steering and staging fault handling."""

import numpy as np
import pytest

from repro.core import HybridFramework
from repro.core.steering import (
    SteeringRule,
    checkpoint_on_hot_spot,
    refine_cadence_on_topology,
)
from repro.des import Engine
from repro.sim import LiftedFlameCase, StructuredGrid3D
from repro.staging import DataSpaces
from repro.transport import DartTransport
from repro.vmpi import BlockDecomposition3D


def _framework(steering=(), analyses=("topology",), **case_kw):
    grid = StructuredGrid3D((12, 10, 8))
    case = LiftedFlameCase(grid, seed=44, kernel_rate=case_kw.pop("kernel_rate", 2.0),
                           **case_kw)
    decomp = BlockDecomposition3D((12, 10, 8), (2, 1, 1))
    return HybridFramework(case, decomp, analyses=analyses, n_buckets=2,
                           steering=steering)


class TestSteeringRules:
    def test_refine_cadence_fires_and_tightens_interval(self):
        rule = refine_cadence_on_topology(n_maxima=1, new_interval=1)
        fw = _framework(steering=(rule,))
        result = fw.run(6, analysis_interval=3)
        assert rule.firings >= 1
        assert fw.analysis_interval == 1
        # after the firing, analyses happen every step
        analysed = result.analysed_steps
        assert len(analysed) > 2  # more than ceil(6/3) without steering

    def test_max_firings_cap(self):
        # A rule whose action always has an effect is capped by
        # max_firings even though its predicate holds on every result.
        effects = []
        rule = SteeringRule(
            name="always-effective",
            predicate=lambda result: result.analysis == "topology",
            action=lambda fw, result: effects.append(result.timestep),
            max_firings=2)
        fw = _framework(steering=(rule,))
        fw.run(6, analysis_interval=1)
        assert rule.firings == 2
        assert len(effects) == 2

    def test_no_flap_when_interval_already_tight(self):
        # The refine rule's predicate holds on every topology result, but
        # refining to the interval already in force is a no-op: it never
        # fires and never pollutes the shared-space decision history.
        rule = refine_cadence_on_topology(n_maxima=1, new_interval=1)
        fw = _framework(steering=(rule,))
        result = fw.run(6, analysis_interval=1)
        assert rule.firings == 0
        assert result.steering_events == []
        assert ("steering", 1) not in fw.dataspaces._store

    def test_cooldown_suppresses_refires(self):
        fired = []
        rule = SteeringRule(
            name="cooled",
            predicate=lambda result: result.analysis == "topology",
            action=lambda fw, result: fired.append(result.timestep),
            cooldown_steps=4)
        fw = _framework(steering=(rule,))
        fw.run(6, analysis_interval=1)
        # Firings at least 4 timesteps apart: steps 0..5 allow at most 2.
        assert rule.firings == len(fired) <= 2
        assert all(b - a >= 4 for a, b in zip(fired, fired[1:]))

    def test_checkpoint_on_hot_spot(self, tmp_path):
        path = str(tmp_path / "event.bp")
        rule = checkpoint_on_hot_spot(threshold=0.5, path=path)
        fw = _framework(steering=(rule,), analyses=("statistics",))
        fw.run(3)
        assert rule.firings == 1  # max_firings=1 built in
        from repro.io.bp import BPFile
        bp = BPFile.open(path)
        assert bp.attrs["trigger"] == "hot-spot"
        assert "T" in bp.variables

    def test_events_recorded_and_published(self):
        rule = refine_cadence_on_topology(n_maxima=1, new_interval=1)
        fw = _framework(steering=(rule,))
        result = fw.run(4, analysis_interval=2)
        assert result.steering_events
        ev = result.steering_events[0]
        assert ev.rule.startswith("refine-cadence")
        # decision history visible through the shared space
        assert ("steering", 1) in fw.dataspaces._store

    def test_no_steering_no_events(self):
        fw = _framework(steering=())
        result = fw.run(3)
        assert result.steering_events == []

    def test_rule_factory_validation(self):
        with pytest.raises(ValueError):
            refine_cadence_on_topology(0, 1)


class TestFaultHandling:
    def _space(self):
        eng = Engine()
        tr = DartTransport(eng)
        ds = DataSpaces(eng, tr, n_servers=1)
        ds.spawn_buckets(["b0", "b1"])
        return eng, tr, ds

    def test_flaky_compute_retries_and_succeeds(self):
        eng, tr, ds = self._space()
        attempts = []

        def flaky(payloads):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient analysis failure")
            return sum(float(p[0]) for p in payloads)

        descs = [tr.register(f"sim-{i}", np.full(2, float(i)))
                 for i in range(3)]
        task = ds.submit_grouped_result("stats", 0, descs, compute=flaky)
        task.max_retries = 5
        ds.shutdown_buckets()
        eng.run()
        results = ds.all_results()
        assert len(results) == 1
        assert results[0].value == 3.0
        assert len(attempts) == 3
        failures = [f for b in ds.buckets for f in b.failures]
        assert len(failures) == 2

    def test_retry_moves_to_other_bucket(self):
        eng, tr, ds = self._space()
        calls = []

        def fail_once(payloads):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return "ok"

        descs = [tr.register("sim-0", b"x")]
        task = ds.submit_grouped_result("a", 0, descs, compute=fail_once)
        task.max_retries = 1
        ds.shutdown_buckets()
        eng.run()
        r = ds.all_results()
        assert len(r) == 1 and r[0].value == "ok"

    def test_regions_survive_retries(self):
        """Producers' buffers stay registered until the task succeeds."""
        eng, tr, ds = self._space()
        calls = []

        def fail_once(payloads):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return float(np.sum(payloads[0]))

        descs = [tr.register("sim-0", np.arange(4.0))]
        task = ds.submit_grouped_result("a", 0, descs, compute=fail_once)
        task.max_retries = 2
        ds.shutdown_buckets()
        eng.run()
        assert ds.all_results()[0].value == 6.0
        # after success the region was released
        with pytest.raises(KeyError):
            tr.registry.lookup(descs[0].region_id)

    def test_exhausted_retries_fail_terminally_without_killing_bucket(self):
        eng, tr, ds = self._space()

        def always_fails(payloads):
            raise RuntimeError("permanent failure")

        descs = [tr.register("sim-0", b"x")]
        task = ds.submit_grouped_result("a", 0, descs, compute=always_fails)
        task.max_retries = 2
        ds.shutdown_buckets()
        eng.run()
        failures = [f for b in ds.buckets for f in b.failures]
        assert len(failures) == 3  # initial + 2 retries
        # the task is accounted as terminally failed, not lost
        assert task.task_id in ds.failed_task_ids()
        acct = ds.task_accounting()
        assert acct["failed"] == 1 and acct["outstanding"] == 0
        # every bucket survived and was shut down cleanly, not killed
        assert all(not b.dead for b in ds.buckets)
        # the failed task's retained regions were released
        assert tr.registry.region_ids() == []

    def test_fail_fast_by_default_records_terminal_failure(self):
        eng, tr, ds = self._space()

        def always_fails(payloads):
            raise RuntimeError("fatal")

        descs = [tr.register("sim-0", b"x")]
        task = ds.submit_grouped_result("a", 0, descs, compute=always_fails)
        ds.shutdown_buckets()
        eng.run()
        failures = [f for b in ds.buckets for f in b.failures]
        assert len(failures) == 1  # max_retries=0: one attempt, no retry
        assert task.task_id in ds.failed_task_ids()
        assert ds.task_accounting()["outstanding"] == 0
        assert all(not b.dead for b in ds.buckets)

    def test_max_retries_validation(self):
        from repro.staging.descriptors import TaskDescriptor
        with pytest.raises(ValueError):
            TaskDescriptor(task_id="t", analysis="a", timestep=0, data=[],
                           max_retries=-1)

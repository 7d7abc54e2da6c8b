"""Tests for the fault injector and the recovery machinery end to end.

Acceptance criteria exercised here: under every injected fault scenario
(bucket crash mid-task, pull failure, compute exception, staging fully
down) the drain event fires, every task ends completed or terminally
failed, and a crash mid-task leads to reassignment within one lease
timeout.
"""

import numpy as np
import pytest

from repro.costmodel.models import CostModel
from repro.des import Engine
from repro.faults import FaultConfig, FaultInjector, run_resilience_experiment
from repro.obs.tracer import tracing
from repro.staging import DataSpaces
from repro.transport import DartTransport

LEASE = 5.0e-3


def _space(n_buckets=2, lease_timeout=LEASE, cost_model=None, **ds_kw):
    eng = Engine()
    tr = DartTransport(eng, pull_max_attempts=3)
    ds = DataSpaces(eng, tr, n_servers=1, lease_timeout=lease_timeout,
                    cost_model=cost_model, **ds_kw)
    ds.spawn_buckets([f"b{i}" for i in range(n_buckets)])
    return eng, tr, ds


def _assert_accounted(ds):
    acct = ds.task_accounting()
    assert acct["completed"] + acct["failed"] == acct["submitted"]
    assert acct["outstanding"] == 0


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(pull_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(pull_stall_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(pull_stall_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(crash_rate=-1.0)

    def test_crash_rate_needs_horizon(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_rate=10.0)
        FaultConfig(crash_rate=10.0, horizon=1.0)  # fine

    def test_negative_crash_times_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_times=(-0.5,))

    def test_inject_properties(self):
        assert not FaultConfig().injects_crashes
        assert FaultConfig(crash_times=(1.0,)).injects_crashes
        assert FaultConfig(crash_rate=1.0, horizon=1.0).injects_crashes
        assert FaultConfig(pull_failure_rate=0.1).injects_pull_faults
        assert FaultConfig(pull_stall_rate=0.1).injects_pull_faults


class TestInjectorWiring:
    def test_crash_injection_requires_lease(self):
        eng, tr, ds = _space(lease_timeout=None)
        inj = FaultInjector(eng, FaultConfig(crash_times=(1.0,)))
        with pytest.raises(ValueError, match="lease"):
            inj.attach(ds)

    def test_double_attach_rejected(self):
        eng, tr, ds = _space()
        inj = FaultInjector(eng, FaultConfig())
        inj.attach(ds)
        with pytest.raises(RuntimeError):
            inj.attach(ds)

    def test_pull_faults_allowed_without_lease(self):
        eng, tr, ds = _space(lease_timeout=None)
        FaultInjector(eng, FaultConfig(pull_failure_rate=0.5)).attach(ds)
        assert tr.pull_fault_hook is not None


class TestInjectorDeterminism:
    def _run(self, seed):
        eng, tr, ds = _space(n_buckets=2)
        inj = FaultInjector(eng, FaultConfig(
            seed=seed, crash_rate=100.0, horizon=0.05,
            pull_failure_rate=0.3)).attach(ds)
        for i in range(8):
            descs = [tr.register("sim-0", np.full(8, float(i)),
                                 nbytes=4 << 20)]
            ds.submit_grouped_result("a", i, descs,
                                     compute=lambda p: float(p[0].sum()),
                                     max_retries=3)
        ds.shutdown_buckets()
        eng.run()
        return [(f.kind, f.time, f.target) for f in inj.injected], ds

    def test_same_seed_identical_fault_sequence(self):
        seq_a, ds_a = self._run(7)
        seq_b, ds_b = self._run(7)
        assert seq_a == seq_b
        assert ds_a.task_accounting() == ds_b.task_accounting()

    def test_different_seed_different_sequence(self):
        seq_a, _ = self._run(7)
        seq_b, _ = self._run(8)
        assert seq_a != seq_b


class TestCrashRecovery:
    def test_crash_mid_pull_reassigns_within_one_lease(self):
        # Each pull takes ~10 ms (64 MiB), so both buckets are mid-task
        # when the crash lands at 4 ms; whichever bucket dies, its task is
        # requeued once the 5 ms lease expires and finishes elsewhere.
        eng, tr, ds = _space(n_buckets=2)
        payloads = [np.arange(16.0), np.arange(16.0) * 2]
        for i, payload in enumerate(payloads):
            descs = [tr.register("sim-0", payload, nbytes=64 << 20)]
            ds.submit_grouped_result("a", i, descs,
                                     compute=lambda p: float(p[0].sum()))
        inj = FaultInjector(eng, FaultConfig(crash_times=(4.0e-3,)))
        inj.attach(ds)
        ds.shutdown_buckets()
        drained = []
        ds.drained().callbacks.append(lambda _: drained.append(eng.now))
        eng.run()

        assert inj.count("crash") == 1
        recs = ds.scheduler.reassignments
        assert len(recs) == 1
        # crash -> requeue within one lease period of the assignment
        assert recs[0].requeue_time - recs[0].assign_time <= LEASE + 1e-12
        results = ds.all_results()
        assert sorted(r.value for r in results) == sorted(
            float(p.sum()) for p in payloads)
        reassigned = next(r for r in results
                          if r.task_id == recs[0].task_id)
        assert reassigned.bucket != recs[0].dead_bucket
        assert drained  # drain event fired despite the crash
        _assert_accounted(ds)
        assert len(tr.registry) == 0  # retained regions released on success

    def test_crash_idle_bucket_harmless(self):
        eng, tr, ds = _space(n_buckets=2)
        descs = [tr.register("sim-0", np.ones(4))]
        ds.submit_grouped_result("a", 0, descs,
                                 compute=lambda p: float(p[0].sum()))
        # crash long after the (fast) task finished
        FaultInjector(eng, FaultConfig(crash_times=(1.0,))).attach(ds)
        ds.shutdown_buckets()
        eng.run()
        assert ds.scheduler.reassignments == []
        assert len(ds.all_results()) == 1
        _assert_accounted(ds)

    def test_supervisor_restart_restores_pool(self):
        with tracing() as tracer:
            eng, tr, ds = _space(n_buckets=2, bucket_restart_delay=1.0e-3,
                                 max_bucket_restarts=2)
            descs = [tr.register("sim-0", np.ones(4), nbytes=64 << 20)]
            ds.submit_grouped_result("a", 0, descs,
                                     compute=lambda p: float(p[0].sum()))
            FaultInjector(eng, FaultConfig(crash_times=(2.0e-3,))).attach(ds)
            ds.shutdown_buckets()
            eng.run()
        assert ds.restarts_used == 1 and ds.pool_respawns == 0
        assert ds.live_buckets() == 2  # replacement joined the pool
        assert [b.name for b in ds.buckets] == ["b0", "b1", "b1~r1"]
        assert tracer.metrics.snapshot()["counters"][
            "dataspaces.bucket_restarts"] == 1
        assert [i.tags for i in tracer.trace.instants
                if i.name == "dataspaces.bucket_restart"] == [
            {"dead": "b1", "replacement": "b1~r1"}]
        assert len(ds.all_results()) == 1
        _assert_accounted(ds)

    def test_crash_unknown_bucket_raises(self):
        eng, tr, ds = _space()
        with pytest.raises(KeyError):
            ds.crash_bucket("nope")


class TestPullFaults:
    def test_pull_failures_retry_with_backoff(self):
        eng, tr, ds = _space(n_buckets=1, lease_timeout=None)
        inj = FaultInjector(eng, FaultConfig(pull_failure_rate=1.0))
        # fail the first two attempts deterministically, then succeed
        original = inj._pull_hook

        def two_failures(desc, dest, attempt):
            if attempt <= 2:
                return original(desc, dest, attempt)
            return 0.0

        inj.attach(ds)
        tr.pull_fault_hook = two_failures
        descs = [tr.register("sim-0", np.ones(4))]
        ds.submit_grouped_result("a", 0, descs,
                                 compute=lambda p: float(p[0].sum()))
        ds.shutdown_buckets()
        eng.run()
        fails = [f for f in inj.injected if f.kind == "pull_failure"]
        assert [f.detail["attempt"] for f in fails] == [1, 2]
        # exponential backoff between attempts: base, then base * factor
        gap1 = fails[1].time - fails[0].time
        assert gap1 == pytest.approx(tr.pull_backoff_base)
        assert len(ds.all_results()) == 1
        _assert_accounted(ds)

    def test_pull_exhaustion_fails_task_terminally(self):
        eng, tr, ds = _space(n_buckets=1, lease_timeout=None)
        FaultInjector(eng, FaultConfig(pull_failure_rate=1.0)).attach(ds)
        descs = [tr.register("sim-0", np.ones(4))]
        task = ds.submit_grouped_result("a", 0, descs,
                                        compute=lambda p: float(p[0].sum()))
        ds.shutdown_buckets()
        drained = []
        ds.drained().callbacks.append(lambda _: drained.append(eng.now))
        eng.run()
        assert task.task_id in ds.failed_task_ids()
        assert drained
        _assert_accounted(ds)
        assert ds.live_buckets() == 1  # pull faults never kill the bucket
        assert len(tr.registry) == 0

    def test_stall_slows_pull_but_completes(self):
        def run(stall_rate):
            eng, tr, ds = _space(n_buckets=1, lease_timeout=None)
            FaultInjector(eng, FaultConfig(
                pull_stall_rate=stall_rate,
                pull_stall_seconds=2.0e-3)).attach(ds)
            descs = [tr.register("sim-0", np.ones(4))]
            ds.submit_grouped_result("a", 0, descs,
                                     compute=lambda p: float(p[0].sum()))
            ds.shutdown_buckets()
            eng.run()
            return ds.all_results()[0].finish_time

        assert run(1.0) >= run(0.0) + 2.0e-3


class TestDegradedMode:
    def _kill_all(self, n_buckets):
        return FaultConfig(crash_times=tuple(1.0e-4 * (i + 1)
                                             for i in range(n_buckets)))

    def test_staging_fully_down_falls_back_insitu(self):
        eng, tr, ds = _space(n_buckets=2)
        payloads = [np.full(8, float(i)) for i in range(4)]
        for i, p in enumerate(payloads):
            descs = [tr.register("sim-0", p, nbytes=64 << 20)]
            ds.submit_grouped_result("a", i, descs,
                                     compute=lambda ps: float(ps[0].sum()))
        FaultInjector(eng, self._kill_all(2)).attach(ds)
        ds.shutdown_buckets()
        drained = []
        ds.drained().callbacks.append(lambda _: drained.append(eng.now))
        eng.run()
        assert ds.degraded
        assert ds.live_buckets() == 0
        results = ds.all_results()
        assert sorted(r.value for r in results) == [
            float(p.sum()) for p in payloads]
        assert all(r.bucket == "insitu-fallback" for r in ds.fallback_results)
        assert ds.fallback_results  # at least some ran degraded
        assert drained
        _assert_accounted(ds)
        assert len(tr.registry) == 0

    def test_degraded_mode_charges_insitu_price(self):
        model = CostModel(name="m", rates={"analysis": 1.0e-6})
        eng, tr, ds = _space(n_buckets=1, cost_model=model)
        descs = [tr.register("sim-0", np.ones(8))]
        ds.submit_grouped_result("a", 0, descs,
                                 compute=lambda p: float(p[0].sum()),
                                 cost_op="analysis",
                                 cost_elements=10**6)
        ds.crash_bucket("b0")
        ds.shutdown_buckets()
        eng.run()
        assert ds.degraded
        r = ds.all_results()[0]
        # charged the task's modeled cost: 1e6 elements * 1e-6 s/element = 1 s
        assert r.finish_time >= 1.0
        _assert_accounted(ds)

    def test_fallback_compute_exception_is_contained(self):
        eng, tr, ds = _space(n_buckets=1)

        def boom(payloads):
            raise RuntimeError("bad analysis")

        descs = [tr.register("sim-0", np.ones(4))]
        task = ds.submit_grouped_result("a", 0, descs, compute=boom,
                                        max_retries=0)
        ds.crash_bucket("b0")
        ds.shutdown_buckets()
        eng.run()
        assert task.task_id in ds.failed_task_ids()
        _assert_accounted(ds)
        assert len(tr.registry) == 0


class TestResilienceExperiment:
    def test_baseline_clean_run(self):
        r = run_resilience_experiment(n_tasks=8, n_buckets=2)
        assert r.accounting["completed"] == 8
        assert r.all_accounted and r.drained and r.values_ok
        assert r.retries == 0 and r.reassignments == 0

    def test_every_scenario_accounts_all_tasks(self):
        scenarios = [
            (FaultConfig(seed=3, pull_failure_rate=0.3), {}),
            (FaultConfig(seed=3, crash_rate=100.0, horizon=0.05), {}),
            (FaultConfig(seed=3, crash_rate=100.0, horizon=0.05),
             {"bucket_restart_delay": 2.0e-3, "max_bucket_restarts": 4}),
            (FaultConfig(seed=3, crash_times=(0.001, 0.002)),
             {"n_buckets": 2}),
            (FaultConfig(seed=3, pull_stall_rate=0.2,
                         pull_stall_seconds=2.0e-3), {}),
        ]
        for cfg, extra in scenarios:
            kw = {"n_tasks": 12, "n_buckets": 2, **extra}
            r = run_resilience_experiment(cfg, lease_timeout=LEASE, **kw)
            assert r.all_accounted, (cfg, r.accounting)
            assert r.values_ok, cfg
            # crash -> requeue within one lease period (plus renewal phase)
            assert all(d <= 2 * LEASE + 1e-12 for d in r.recovery_delays)

    def test_report_drained_property(self):
        r = run_resilience_experiment(n_tasks=4, n_buckets=2)
        assert r.drained

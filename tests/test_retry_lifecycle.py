"""Retry lifecycle: the full journey of a failing in-transit task.

Covers the paths ISSUE 3 hardened: compute failure followed by success on
requeue, retry exhaustion, streaming-mode failure isolation (including
in-flight prefetch pulls), transport-level pull failure folding into the
same retry path, and exact region-release accounting when
``max_retries > 0`` retains regions across attempts.
"""

import numpy as np
import pytest

from repro.des import Engine
from repro.staging import DataSpaces
from repro.transport import DartTransport, PullFault


def _space(n_buckets=2, pull_max_attempts=1, **ds_kw):
    eng = Engine()
    tr = DartTransport(eng, pull_max_attempts=pull_max_attempts)
    ds = DataSpaces(eng, tr, n_servers=1, **ds_kw)
    ds.spawn_buckets([f"b{i}" for i in range(n_buckets)])
    return eng, tr, ds


def _assert_no_leaks(tr):
    """No retained regions, no stuck NIC channels."""
    assert tr.registry.region_ids() == []
    for node, nic in tr._nics.items():
        assert nic.in_use == 0, f"NIC {node} leaked {nic.in_use} channels"


class TestComputeRetries:
    def test_fail_then_succeed_on_requeue(self):
        eng, tr, ds = _space()
        attempts = []

        def flaky(payloads):
            attempts.append(len(attempts))
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return float(sum(p.sum() for p in payloads))

        descs = [tr.register("sim-0", np.arange(4.0)),
                 tr.register("sim-1", np.arange(4.0))]
        task = ds.submit_grouped_result("a", 0, descs, compute=flaky,
                                        max_retries=2)
        ds.shutdown_buckets()
        eng.run()
        assert len(attempts) == 2
        assert task.attempts == 1  # one failed attempt recorded
        r = ds.all_results()
        assert len(r) == 1 and r[0].value == 12.0
        acct = ds.task_accounting()
        assert acct == {"submitted": 1, "completed": 1, "failed": 0,
                        "outstanding": 0}
        _assert_no_leaks(tr)

    def test_exhaustion_counts_every_attempt(self):
        eng, tr, ds = _space()

        def always_fails(payloads):
            raise RuntimeError("permanent")

        descs = [tr.register("sim-0", np.ones(4))]
        task = ds.submit_grouped_result("a", 0, descs, compute=always_fails,
                                        max_retries=3)
        ds.shutdown_buckets()
        eng.run()
        assert task.attempts == 4  # initial + 3 retries
        assert task.task_id in ds.failed_task_ids()
        assert ds.task_accounting()["failed"] == 1
        assert all(not b.dead for b in ds.buckets)
        _assert_no_leaks(tr)

    def test_failure_records_error_and_time(self):
        eng, tr, ds = _space(n_buckets=1)

        def boom(payloads):
            raise ValueError("detail message")

        descs = [tr.register("sim-0", np.ones(4))]
        task = ds.submit_grouped_result("a", 0, descs, compute=boom)
        ds.shutdown_buckets()
        eng.run()
        failures = [f for b in ds.buckets for f in b.failures]
        assert len(failures) == 1
        task_id, when, error = failures[0]
        assert task_id == task.task_id
        assert when > 0.0
        assert "detail message" in error


class TestStreamingFailures:
    def test_stream_compute_failure_is_contained(self):
        eng, tr, ds = _space(n_buckets=1)
        seen = []

        def stream(state, payload):
            seen.append(payload)
            if len(seen) == 2:
                raise RuntimeError("bad payload")
            return (state or 0.0) + float(payload.sum())

        descs = [tr.register(f"sim-{i}", np.full(4, float(i)))
                 for i in range(4)]
        task = ds.submit_grouped_result("a", 0, descs, stream_compute=stream)
        ds.shutdown_buckets()
        eng.run()
        # failure recorded, task accounted, bucket alive, nothing leaked
        failures = [f for b in ds.buckets for f in b.failures]
        assert len(failures) == 1
        assert task.task_id in ds.failed_task_ids()
        assert ds.task_accounting()["outstanding"] == 0
        assert all(not b.dead for b in ds.buckets)
        _assert_no_leaks(tr)

    def test_stream_failure_then_retry_succeeds(self):
        eng, tr, ds = _space(n_buckets=1)
        calls = []

        def stream(state, payload):
            calls.append(1)
            if len(calls) == 2:  # fail mid-stream on the first attempt
                raise RuntimeError("transient")
            return (state or 0.0) + float(payload.sum())

        descs = [tr.register(f"sim-{i}", np.full(4, float(i)))
                 for i in range(3)]
        ds.submit_grouped_result("a", 0, descs, stream_compute=stream,
                                 max_retries=1)
        ds.shutdown_buckets()
        eng.run()
        r = ds.all_results()
        assert len(r) == 1
        assert r[0].value == 4.0 * (0 + 1 + 2)
        _assert_no_leaks(tr)

    def test_stream_finalize_failure_is_contained(self):
        eng, tr, ds = _space(n_buckets=1)

        def finalize(state):
            raise RuntimeError("finalize blew up")

        descs = [tr.register("sim-0", np.ones(4))]
        task = ds.submit_grouped_result(
            "a", 0, descs, stream_compute=lambda s, p: p,
            stream_finalize=finalize)
        ds.shutdown_buckets()
        eng.run()
        assert task.task_id in ds.failed_task_ids()
        assert ds.task_accounting()["outstanding"] == 0
        _assert_no_leaks(tr)


class TestPullFailures:
    def test_pull_exhaustion_folds_into_task_retry(self):
        # Transport retries (3 attempts) exhaust on the first task attempt;
        # the task-level retry then pulls cleanly and succeeds.
        eng, tr, ds = _space(n_buckets=1, pull_max_attempts=3)
        pull_attempts = []

        def fail_first_three(descriptor, dest, attempt):
            pull_attempts.append(attempt)
            if len(pull_attempts) <= 3:
                raise PullFault("injected")
            return 0.0

        tr.pull_fault_hook = fail_first_three
        descs = [tr.register("sim-0", np.arange(4.0))]
        task = ds.submit_grouped_result(
            "a", 0, descs, compute=lambda p: float(p[0].sum()),
            max_retries=1)
        ds.shutdown_buckets()
        eng.run()
        assert pull_attempts == [1, 2, 3, 1]  # exhausted, then fresh attempt
        assert task.attempts == 1
        r = ds.all_results()
        assert len(r) == 1 and r[0].value == 6.0
        _assert_no_leaks(tr)

    def test_pull_backoff_delays_are_exponential(self):
        eng, tr, ds = _space(n_buckets=1, pull_max_attempts=3)
        times = []

        def always_fail(descriptor, dest, attempt):
            times.append(eng.now)
            raise PullFault("injected")

        tr.pull_fault_hook = always_fail
        descs = [tr.register("sim-0", np.ones(4))]
        ds.submit_grouped_result("a", 0, descs,
                                 compute=lambda p: float(p[0].sum()))
        ds.shutdown_buckets()
        eng.run()
        assert len(times) == 3
        gap1, gap2 = times[1] - times[0], times[2] - times[1]
        assert gap1 == pytest.approx(tr.pull_backoff_base)
        assert gap2 == pytest.approx(tr.pull_backoff_base
                                     * tr.pull_backoff_factor)
        assert ds.task_accounting()["failed"] == 1
        _assert_no_leaks(tr)

    def test_streaming_pull_failure_is_contained(self):
        eng, tr, ds = _space(n_buckets=1, pull_max_attempts=1)
        calls = []

        def fail_second_region(descriptor, dest, attempt):
            calls.append(descriptor.region_id)
            if len(calls) == 2:
                raise PullFault("injected")
            return 0.0

        tr.pull_fault_hook = fail_second_region
        descs = [tr.register(f"sim-{i}", np.full(4, float(i)),
                             nbytes=4 << 20)
                 for i in range(3)]
        task = ds.submit_grouped_result(
            "a", 0, descs,
            stream_compute=lambda s, p: (s or 0.0) + float(p.sum()))
        ds.shutdown_buckets()
        eng.run()
        assert task.task_id in ds.failed_task_ids()
        assert ds.task_accounting()["outstanding"] == 0
        assert all(not b.dead for b in ds.buckets)
        _assert_no_leaks(tr)


class TestRegionAccounting:
    def test_regions_retained_across_attempts_released_on_success(self):
        eng, tr, ds = _space(n_buckets=1)
        calls = []
        region_state = []

        def flaky(payloads):
            calls.append(1)
            # regions must still be registered while retries remain
            region_state.append(
                [d.region_id in tr.registry for d in descs])
            if len(calls) == 1:
                raise RuntimeError("transient")
            return float(sum(p.sum() for p in payloads))

        descs = [tr.register(f"sim-{i}", np.arange(3.0)) for i in range(2)]
        ds.submit_grouped_result("a", 0, descs, compute=flaky,
                                 max_retries=1)
        ds.shutdown_buckets()
        eng.run()
        assert region_state == [[True, True], [True, True]]
        assert len(ds.all_results()) == 1
        _assert_no_leaks(tr)

    def test_regions_released_on_terminal_failure(self):
        eng, tr, ds = _space(n_buckets=1)

        def always_fails(payloads):
            raise RuntimeError("permanent")

        descs = [tr.register(f"sim-{i}", np.ones(4)) for i in range(3)]
        ds.submit_grouped_result("a", 0, descs, compute=always_fails,
                                 max_retries=2)
        ds.shutdown_buckets()
        eng.run()
        assert ds.task_accounting()["failed"] == 1
        _assert_no_leaks(tr)

    def test_zero_retries_releases_on_first_failure(self):
        eng, tr, ds = _space(n_buckets=1)

        def boom(payloads):
            raise RuntimeError("fatal")

        descs = [tr.register("sim-0", np.ones(4))]
        ds.submit_grouped_result("a", 0, descs, compute=boom)
        ds.shutdown_buckets()
        eng.run()
        _assert_no_leaks(tr)

    def test_mixed_success_and_failure_accounting(self):
        eng, tr, ds = _space(n_buckets=2)

        def bad(payloads):
            raise RuntimeError("bad task")

        for i in range(4):
            descs = [tr.register("sim-0", np.full(2, float(i)))]
            compute = bad if i % 2 else (lambda p: float(p[0].sum()))
            ds.submit_grouped_result("a", i, descs, compute=compute,
                                     max_retries=1)
        ds.shutdown_buckets()
        eng.run()
        acct = ds.task_accounting()
        assert acct == {"submitted": 4, "completed": 2, "failed": 2,
                        "outstanding": 0}
        assert len(ds.failed_task_ids()) == 2
        _assert_no_leaks(tr)

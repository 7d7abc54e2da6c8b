"""The step table (``repro.obs.steps``): each failure step emits its row.

Every failure kind of the staging protocol is one :data:`STEPS` row. Each
is driven here by a traced run that reaches it — existing plans where one
does — and must show its instant; where the row also counts, each counter
that only this row increments equals the number of instants. A degraded
replay's blame must cover the fallback tasks: its window is the makespan
and no finished task's flow stays open.
"""

from functools import cache

import numpy as np
import pytest

from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.des import Engine
from repro.faults import FaultConfig, run_resilience_experiment
from repro.obs.blame import blame
from repro.obs.flow import EDGE_SERVICE
from repro.obs.steps import STEPS
from repro.obs.tracer import NULL_TRACER, Tracer, tracing
from repro.staging import DataSpaces
from repro.staging.dataspaces import FALLBACK_LANE
from repro.transport import DartTransport
from tests.test_replay_digest import FAULTED

#: The degraded plan: both buckets crash and none restarts, so every task
#: runs on the in-situ fallback.
DEGRADED = dict(n_steps=12, n_buckets=2, lease_timeout=5.0,
                crash_times=(20.0, 20.5), fault_seed=3)


def _replay(**plan):
    with tracing() as tracer:
        result = ScaledExperiment(ExperimentConfig.paper_4896()).run_schedule(
            ReplayPlan(**plan))
    return tracer, result


def _space(n_buckets):
    engine = Engine()
    transport = DartTransport(engine)
    ds = DataSpaces(engine, transport, n_servers=1)
    ds.spawn_buckets([f"b{i}" for i in range(n_buckets)])
    return engine, transport, ds


def _traced(fn, *args, **kwargs):
    with tracing() as tracer:
        fn(*args, **kwargs)
    return tracer


def _shrink():
    with tracing() as tracer:
        engine, _, ds = _space(3)
        engine.call_at(0.5, lambda: ds.scale_to(1))
        engine.run()
    return tracer


def _fallback_failure():
    """The only bucket crashes; the next task's compute raises in the
    fallback."""
    def broken(_payloads):
        raise ValueError("compute fault")

    with tracing() as tracer:
        engine, transport, ds = _space(1)
        engine.call_at(1.0, lambda: ds.crash_bucket("b0"))

        def submit():
            desc = transport.register("sim-0", np.ones(4), nbytes=64)
            ds.submit_grouped_result("a", 0, [desc], compute=broken)

        engine.call_at(2.0, submit)
        engine.call_at(3.0, ds.shutdown_buckets)
        engine.run()
    assert ds.fallback_failures
    return tracer


RUNS = {
    "faulted": lambda: _replay(**FAULTED)[0],
    "degraded": lambda: _replay(**DEGRADED)[0],
    # pull_max_attempts > 1 and task retries: what a replay never sets.
    "flaky": lambda: _traced(run_resilience_experiment,
                             FaultConfig(pull_failure_rate=0.5, seed=1),
                             n_tasks=8),
    "lossy": lambda: _replay(n_steps=4, n_buckets=4, pull_failure_rate=0.5,
                             fault_seed=3)[0],
    "shrink": _shrink,
    "fallback_failure": _fallback_failure,
}


@cache
def _run(name):
    return RUNS[name]()


#: Failure row -> the run that reaches it. ``dataspaces.pool_respawn`` is
#: asserted where the respawn is (tests/test_control.py::TestScaleTo::
#: test_supervisor_respawns_toward_target_after_crash).
FAILURE_ROWS = {
    "faults.crash": "faulted",
    "faults.pull_failure": "faulted",
    "faults.pull_stall": "faulted",
    "bucket.crash": "faulted",
    "bucket.failure": "faulted",
    "bucket.retry": "flaky",
    "bucket.terminal_failure": "lossy",
    "bucket.retire": "shrink",
    "sched.bucket_retire": "shrink",
    "sched.bucket_dead": "faulted",
    "sched.lease_reassign": "faulted",
    "dart.pull_retry": "flaky",
    "dart.pull_backoff": "flaky",
    "dart.pull_exhausted": "lossy",
    "dart.pull_stall": "faulted",
    "dataspaces.bucket_restart": "faulted",
    "dataspaces.scale_to": "shrink",
    "dataspaces.degraded": "degraded",
    "dataspaces.fallback": "degraded",
    "dataspaces.fallback_failure": "fallback_failure",
}


def _own_counters(kind):
    """The row's counters no other row increments."""
    shared = {name for other, row in STEPS.items() if other != kind
              for name, _tag in row.counters}
    return [name for name, _tag in STEPS[kind].counters
            if name not in shared]


@pytest.mark.parametrize("kind", sorted(FAILURE_ROWS))
def test_each_failure_step_emits_its_row(kind):
    tracer = _run(FAILURE_ROWS[kind])
    row = STEPS[kind]
    counters = tracer.metrics.snapshot()["counters"]
    if row.instant is not None:
        n = sum(1 for i in tracer.trace.instants if i.name == row.instant)
        assert n > 0
        for name in _own_counters(kind):
            assert counters[name] == n, name
    for name, _tag in row.counters:
        assert counters.get(name, 0) > 0, name
    if row.edge is not None and not row.closes:
        assert any(hop.kind == row.edge and set(row.hop_tags) <= set(hop.tags)
                   for flow in tracer.trace.flows for hop in flow.hops)


def test_degraded_replay_blame_covers_the_fallback_tasks():
    tracer, result = _replay(**DEGRADED)
    assert {r.bucket for r in result.results} == {FALLBACK_LANE}
    report = blame(tracer.trace)
    assert report.makespan == pytest.approx(result.makespan, abs=1e-6)
    assert report.overall.check(1e-6)
    finished = {r.task_id for r in result.results}
    flows = [f for f in tracer.trace.flows if f.tags["task_id"] in finished]
    assert len(flows) == len(finished)
    assert all(f.closed and f.hops[-1].kind == EDGE_SERVICE for f in flows)
    smap = tracer.trace.span_map()
    assert {smap[f.dst_span_id].lane for f in flows} == {FALLBACK_LANE}


class TestStep:
    def test_a_row_derives_its_records(self):
        tracer = Tracer(clock=lambda: 2.0)
        flow = tracer.flow_begin("task", t=0.0)
        tracer.step("vmpi.collective", op="allreduce", n_ranks=4, nbytes=64,
                    modeled_time=0.5)
        tracer.step("dart.pull_backoff", "n1", flow=flow, region="r",
                    attempt=1, backoff=0.1)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["vmpi.allreduce"] == 1
        assert snap["counters"]["vmpi.coll_bytes"] == 64
        assert snap["histograms"]["vmpi.coll_time"]["total"] == 0.5
        (inst,) = tracer.trace.instants
        assert (inst.name, inst.lane, list(inst.tags)) == (
            "vmpi.allreduce", "vmpi", ["n_ranks", "nbytes", "modeled_time"])
        (hop,) = flow.hops
        assert (hop.t, hop.kind, hop.lane, hop.tags) == (
            2.0, "retry", "n1", {"region": "r", "attempt": 1, "backoff": 0.1})

    def test_null_tracer_step_records_nothing(self):
        assert NULL_TRACER.step("sched.assign", "x", None, bucket="b") is None
        assert NULL_TRACER.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

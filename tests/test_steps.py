"""The step table (``repro.obs.steps``): each failure step emits its row.

Every failure kind of the staging protocol is one :data:`STEPS` row. Each
is driven here by a traced run that reaches it — existing plans where one
does — and must show its instant; where the row also counts, each counter
that only this row increments equals the number of instants. A degraded
replay's blame must cover the fallback tasks: its window is the makespan
and no finished task's flow stays open.
"""

import math
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.des import Engine
from repro.faults import FaultConfig, run_resilience_experiment
from repro.obs.blame import blame
from repro.obs.flow import EDGE_SERVICE
from repro.obs.metrics import MetricsRegistry
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


# -- the metrics fold ---------------------------------------------------------
#
# ``Tracer.metrics`` folds the step records into the registry on read.
# The reference below is what a step used to do at emit time: one
# single-sample update per instrument of the row (``extend([v])``, or
# ``set(v)`` for a gauge), on a registry with the same clock. Every row is
# drawn, the failure rows included (the golden digests cover only the happy
# path), with templated names and the two rows that feed
# ``dart.pull_faults``.

#: Values of the tags that name instruments (``dart.pull.{protocol}``).
_FIELD_VALUES = ("rdma", "tcp", "x")


def _tag_strategy(row):
    """Tags for one call of ``row``: every tag it reads, in row order.

    Counter deltas are >= 0, gauges may read NaN, and the tags in
    instrument names take a few values, so bound names repeat."""
    instruments = (*row.counters, *row.histograms, *row.gauges)
    fields = [f for n, _t in instruments for f in re.findall(r"{(\w+)}", n)]
    number = st.one_of(st.integers(-5, 10**6), st.floats(-1e3, 1e9))
    kinds = {tag: number for _n, tag in row.histograms}
    kinds.update((tag, st.one_of(number, st.just(math.nan)))
                 for _n, tag in row.gauges)
    kinds.update((tag, st.one_of(st.integers(0, 10**6), st.floats(0, 1e9)))
                 for _n, tag in row.counters if tag is not None)
    kinds.update((f, st.sampled_from(_FIELD_VALUES)) for f in fields)
    names = [*row.tags, *row.hop_tags, *fields, *kinds]
    return st.fixed_dictionaries({name: kinds.get(name, st.integers())
                                  for name in dict.fromkeys(names)})


_STEP = st.sampled_from(sorted(STEPS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _tag_strategy(STEPS[kind]),
                           st.floats(0, 5)))
#: Step sequences leaning on the two feeders of ``dart.pull_faults``.
_SEQUENCES = st.lists(st.one_of(
    _STEP, st.sampled_from(["dart.pull_retry", "dart.pull_exhausted"]).flatmap(
        lambda kind: st.tuples(st.just(kind), _tag_strategy(STEPS[kind]),
                               st.floats(0, 5)))), max_size=60)


def _drive(steps, reads=()):
    """Step a tracer through ``steps`` (each after its clock advance),
    reading its metrics after the steps whose indexes are in ``reads``."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    for i, (kind, tags, dt) in enumerate(steps):
        now[0] += dt
        tracer.step(kind, None, **tags)
        if i in reads:
            tracer.metrics
    return tracer.metrics


def _reference(steps):
    now = [0.0]
    registry = MetricsRegistry(clock=lambda: now[0])
    for kind, tags, dt in steps:
        now[0] += dt
        row = STEPS[kind]
        for name, tag in row.counters:
            registry.counter(name.format_map(tags)).extend(
                [1 if tag is None else tags[tag]])
        for name, tag in row.histograms:
            registry.histogram(name.format_map(tags)).extend([tags[tag]])
        for name, tag in row.gauges:
            registry.gauge(name.format_map(tags)).set(tags[tag])
    return registry


def _columns(registry):
    """Everything a registry holds, as text (``repr`` tells 1 from 1.0
    and keeps NaN comparable)."""
    return repr((registry.snapshot(),
                 {n: (c.value, c.times, c.values)
                  for n, c in sorted(registry.counters.items())},
                 {n: (g.value, g.vmin, g.vmax, g.n_samples, g.times, g.values)
                  for n, g in sorted(registry.gauges.items())},
                 {n: h.values
                  for n, h in sorted(registry.histograms.items())}))


class TestMetricsFold:
    @settings(max_examples=150, deadline=None)
    @given(_SEQUENCES)
    # A gauge's envelope skips a NaN as a per-sample write does.
    @example([("sched.queue", {"queue_depth": math.nan,
                               "idle_buckets": 1.0}, 1.0),
              ("sched.queue", {"queue_depth": 2.0,
                               "idle_buckets": math.nan}, 1.0)])
    def test_fold_equals_a_per_step_registry(self, steps):
        assert _columns(_drive(steps)) == _columns(_reference(steps))

    @settings(max_examples=60, deadline=None)
    @given(_SEQUENCES, st.sets(st.integers(0, 59)))
    def test_reads_in_the_middle_change_nothing(self, steps, reads):
        assert _columns(_drive(steps, reads)) == _columns(_drive(steps))

    def test_a_plus_one_counter_stays_an_int(self):
        metrics = _drive([("sched.bucket_ready", {"bucket": "b"}, 1.0)] * 2)
        counter = metrics.counters["sched.bucket_ready"]
        assert counter.values == [1, 2] and type(counter.value) is int

    def test_two_rows_feed_one_counter_in_step_order(self):
        metrics = _drive([
            ("dart.pull_retry", {"region": "r", "attempt": 1,
                                 "backoff": 0.1}, 1.0),
            ("dart.pull_exhausted", {"region": "r", "attempts": 2}, 1.0),
            ("dart.pull_retry", {"region": "r", "attempt": 1,
                                 "backoff": 0.1}, 1.0)])
        faults = metrics.counters["dart.pull_faults"]
        assert list(zip(faults.times, faults.values)) == [
            (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_a_negative_delta_raises_at_fold_time(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.step("dart.pull", protocol="rdma", nbytes=-1)
        with pytest.raises(ValueError, match="cannot decrease"):
            tracer.metrics

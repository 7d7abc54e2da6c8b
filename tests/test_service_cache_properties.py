"""Differential property: a schedule-cache hit vs a fresh run.

For any valid :class:`JobSpec`, the second ``execute`` is a hit that
equals the first result's summary round trip field by field, carries the
makespan a direct ``run_schedule`` computes, and is identical again
through a store-backed cache reopened from disk.
"""

import dataclasses
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.runner import ScaledExperiment, ScheduleResult
from repro.obs.perf import machine_fingerprint
from repro.obs.tracer import tracing
from repro.service import JobSpec, ScheduleCache, schedule_cache_key
from repro.service.api import JobExecutor
from repro.service.cache import schedule_from_dict, schedule_to_dict

_HYBRID = ("VIS_HYBRID", "TOPO_HYBRID", "STATS_HYBRID")


@st.composite
def job_specs(draw) -> JobSpec:
    n_shards = draw(st.integers(1, 2))
    return JobSpec(
        tenant=draw(st.sampled_from(("a", "b"))),
        name="j",
        config=draw(st.sampled_from(("paper_4896", "paper_9440"))),
        n_steps=draw(st.integers(1, 6)),
        n_buckets=draw(st.integers(n_shards, 6)),
        n_shards=n_shards,
        analysis_interval=draw(st.integers(1, 2)),
        analyses=tuple(draw(st.lists(st.sampled_from(_HYBRID), min_size=1,
                                     unique=True))))


def _assert_same(got: ScheduleResult, want: ScheduleResult) -> None:
    for f in dataclasses.fields(ScheduleResult):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert repr(got.makespan) == repr(want.makespan)


@settings(max_examples=30, deadline=None)
@given(spec=job_specs(), traced=st.booleans())
def test_hit_equals_fresh_run(spec: JobSpec, traced: bool) -> None:
    exp = ScaledExperiment(spec.experiment_config())
    assert spec.cache_key() == schedule_cache_key(
        machine_fingerprint(exp.machine), spec.workload_dict(),
        spec.placement_dict())
    assert JobSpec.from_dict(spec.to_dict()).cache_key() == spec.cache_key()

    direct = exp.run_schedule(
        n_steps=spec.n_steps, analyses=spec.variants(),
        n_buckets=spec.n_buckets, analysis_interval=spec.analysis_interval,
        n_shards=spec.n_shards)
    with tempfile.TemporaryDirectory() as root:
        executor = JobExecutor(ScheduleCache(root))
        if traced:  # the cached result then carries a capacity report
            with tracing():
                first, first_hit = executor.execute(spec)
        else:
            first, first_hit = executor.execute(spec)
        second, second_hit = executor.execute(spec)
        third, third_hit = JobExecutor(ScheduleCache(root)).execute(spec)

    assert (first_hit, second_hit, third_hit) == (False, True, True)
    assert (first.capacity is not None) == traced
    want = schedule_from_dict(schedule_to_dict(first))
    _assert_same(second, want)
    _assert_same(third, want)
    assert second.results == first.results == direct.results
    assert repr(second.makespan) == repr(direct.makespan)

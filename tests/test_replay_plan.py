"""`ReplayPlan`: the one description of a staging replay.

``run_schedule(**fields)``, ``run_schedule(ReplayPlan(**fields))`` and
``run_schedule(JobSpec(..., **fields))`` are one replay; the plan is the
only place its fields are checked and normalised.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.core.workload import HYBRID_VARIANTS, AnalyticsVariant
from repro.service import JobSpec

_HYBRID = tuple(v.name for v in HYBRID_VARIANTS)
_EXP = ScaledExperiment(ExperimentConfig.paper_4896())


@st.composite
def plan_fields(draw) -> dict:
    n_shards = draw(st.integers(1, 2))
    fields = dict(
        n_steps=draw(st.integers(1, 6)),
        n_buckets=draw(st.integers(n_shards, 6)),
        n_shards=n_shards,
        analysis_interval=draw(st.integers(1, 3)),
        analyses=tuple(draw(st.lists(st.sampled_from(_HYBRID), min_size=1,
                                     unique=True))))
    if draw(st.booleans()):
        fields.update(
            lease_timeout=draw(st.sampled_from((2.0, 5.0, 30.0))),
            fault_seed=draw(st.integers(0, 3)),
            crash_times=tuple(draw(st.lists(
                st.floats(0.0, 150.0, allow_nan=False), max_size=2))),
            pull_failure_rate=draw(st.sampled_from((0.0, 0.25))),
            pull_stall_rate=draw(st.sampled_from((0.0, 0.3))),
            pull_stall_seconds=draw(st.sampled_from((0.0, 4.0))))
    return fields


def _facts(result):
    return (repr(result.makespan),
            [dataclasses.astuple(r) for r in result.results],
            [dataclasses.astuple(a) for a in result.assignments],
            result.failed_tasks)


@settings(max_examples=30, deadline=None)
@given(fields=plan_fields())
def test_the_three_call_forms_are_one_replay(fields):
    keywords = _EXP.run_schedule(**fields)
    plan = _EXP.run_schedule(ReplayPlan(**fields))
    spec = _EXP.run_schedule(JobSpec(tenant="t", name="j", **fields))
    assert _facts(keywords) == _facts(plan) == _facts(spec)


def test_plan_and_fields_together_is_a_type_error():
    with pytest.raises(TypeError, match="not both"):
        _EXP.run_schedule(ReplayPlan(n_steps=2), n_steps=3)


def test_normalises_variants_and_lists():
    plan = ReplayPlan(analyses=[AnalyticsVariant.TOPO_HYBRID, "VIS_HYBRID"],
                      crash_times=[5.0], lease_timeout=1.0)
    assert plan.analyses == ("TOPO_HYBRID", "VIS_HYBRID")
    assert plan.crash_times == (5.0,)
    assert plan.variants() == (AnalyticsVariant.TOPO_HYBRID,
                               AnalyticsVariant.VIS_HYBRID)
    assert ReplayPlan().analyses == _HYBRID
    assert ReplayPlan(**plan.to_dict()) == plan


def test_default_buckets_are_the_configs_in_transit_cores():
    config = ExperimentConfig.paper_9440()
    assert ReplayPlan().buckets(config) == config.n_intransit_cores
    assert ReplayPlan(n_buckets=3).buckets(config) == 3
    assert JobSpec(tenant="t", name="j").buckets(config) == 8


def test_fault_fields_are_checked_by_the_fault_config():
    with pytest.raises(ValueError, match="pull_failure_rate"):
        ReplayPlan(pull_failure_rate=1.5)
    with pytest.raises(ValueError, match="crash_times"):
        ReplayPlan(crash_times=(-1.0,), lease_timeout=1.0)
    # Set but injecting nothing is still checked, and still clean.
    with pytest.raises(ValueError, match="pull_stall_seconds"):
        ReplayPlan(pull_stall_seconds=-1.0)
    assert ReplayPlan(pull_stall_seconds=2.0).fault_config() is None


def test_a_clean_plan_leaves_the_fault_package_unloaded():
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from repro.core.runner import ReplayPlan\n"
            "ReplayPlan(n_steps=3, n_buckets=4, lease_timeout=5.0)\n"
            "print('repro.faults' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "False"

"""Tests for repro.control: the adaptive in-situ/in-transit controller.

Covers the hysteresis primitive, the elastic staging pool
(``DataSpaces.scale_to`` and the scale-to-target supervisor), the
no-op guard (a healthy run with a controller is bit-identical to one
without), and the fault-injected adaptive-vs-static scenario: pool
growth, placement flips, byte-identical decision logs, and blame-sum
reconciliation with the controller active.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.control import (
    CONTROL_PLAN,
    DEFAULT_MOVABLE,
    PLACE_INSITU,
    PLACE_INTRANSIT,
    ControlPolicy,
    Cooldown,
    PlacementController,
    run_control_scenario,
)
from repro.core import ExperimentConfig, ScaledExperiment
from repro.core.workload import AnalyticsVariant
from repro.des import Engine
from repro.obs.blame import blame
from repro.obs.tracer import tracing
from repro.staging import DataSpaces
from repro.transport import DartTransport


#: Heavier stalls under a different seed: pressure enough to flip placement.
_STALLY_PLAN = dataclasses.replace(CONTROL_PLAN, n_steps=10, fault_seed=1,
                                   pull_stall_rate=0.2, pull_stall_seconds=5.0)


def _result_key(r):
    return (r.task_id, r.analysis, r.timestep, r.bucket, r.enqueue_time,
            r.assign_time, r.pull_done_time, r.finish_time, r.bytes_pulled)


class TestCooldown:
    def test_zero_period_always_ready(self):
        cd = Cooldown(0.0)
        for pos in (0, 0, 1, 1):
            assert cd.ready(pos)
            cd.fire(pos)

    def test_refractory_period(self):
        cd = Cooldown(2)
        assert cd.ready(0)
        cd.fire(0)
        assert not cd.ready(1)
        assert cd.ready(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Cooldown(-1)


class TestPolicyValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            ControlPolicy(window=0)
        with pytest.raises(ValueError):
            ControlPolicy(grow_step=0)
        with pytest.raises(ValueError):
            ControlPolicy(pull_threshold=1.5)
        with pytest.raises(ValueError):
            ControlPolicy(cooldown_windows=-1)

    def test_defaults_are_valid(self):
        pol = ControlPolicy()
        assert pol.window == 2
        assert pol.movable == DEFAULT_MOVABLE


class TestScaleTo:
    def _space(self):
        eng = Engine()
        tr = DartTransport(eng)
        ds = DataSpaces(eng, tr, n_servers=1)
        return eng, tr, ds

    def test_grow_spawns_fresh_workers(self):
        eng, _, ds = self._space()
        ds.spawn_buckets(["b0", "b1"])
        out = ds.scale_to(4)
        assert out["spawned"] == ["staging+1", "staging+2"]
        assert out["retiring"] == []
        assert ds.pool_target == 4
        assert ds.committed_buckets() == 4
        eng.run()
        assert ds.live_buckets() == 4

    def test_shrink_retires_idle_workers_newest_first(self):
        eng, _, ds = self._space()
        ds.spawn_buckets(["b0", "b1", "b2", "b3"])
        out = ds.scale_to(2)
        assert out["retiring"] == ["b3", "b2"]
        eng.run()
        assert ds.live_buckets() == 2
        retired = [b for b in ds.buckets if b.retired]
        assert {b.name for b in retired} == {"b2", "b3"}
        # retirement is orderly shutdown, not death
        assert all(not b.dead for b in retired)

    def test_busy_worker_finishes_task_then_retires(self):
        eng, tr, ds = self._space()
        ds.spawn_buckets(["b0", "b1"])
        for i in range(2):
            descs = [tr.register(f"sim-{i}", np.arange(64.0))]
            ds.submit_grouped_result("stats", i, descs,
                                     compute=lambda p: float(np.sum(p[0])))
        # retire while both workers are mid-task
        eng.call_at(0.5, lambda: ds.scale_to(1))
        eng.call_at(10_000.0, ds.shutdown_buckets)
        eng.run()
        # every submitted task still completed; one worker then left
        assert len(ds.all_results()) == 2
        assert ds.live_buckets() == 1
        assert sum(1 for b in ds.buckets if b.retired) == 1

    def test_supervisor_respawns_toward_target_after_crash(self):
        with tracing() as tracer:
            eng, _, ds = self._space()
            ds.spawn_buckets(["b0", "b1"])
            ds.scale_to(3)
            eng.call_at(1.0, lambda: ds.crash_bucket("b0"))
            eng.run()
        assert ds.pool_respawns == 1
        assert ds.live_buckets() == 3
        assert ds.committed_buckets() == 3
        # the replacement came from the elastic namespace, budget untouched
        assert [b.name for b in ds.buckets] == ["b0", "b1", "staging+1",
                                                "staging+2"]
        assert ds.restarts_used == 0
        assert tracer.metrics.snapshot()["counters"][
            "dataspaces.pool_respawns"] == 1
        assert [i.tags for i in tracer.trace.instants
                if i.name == "dataspaces.pool_respawn"] == [
            {"dead": "b0", "replacement": "staging+2"}]

    def test_validation(self):
        _, _, ds = self._space()
        ds.spawn_buckets(["b0"])
        with pytest.raises(ValueError):
            ds.scale_to(0)


class TestControllerNoOp:
    def test_healthy_run_takes_no_decisions_and_is_bit_identical(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        base = exp.run_schedule(n_steps=4, n_buckets=8)
        ctrl = PlacementController()
        adaptive = exp.run_schedule(n_steps=4, n_buckets=8, controller=ctrl)
        # healthy pool, no backlog: the controller observes but never acts
        assert ctrl.decisions == []
        assert len(ctrl.signal_history) > 0
        # and the replay is bit-identical to the uncontrolled one
        assert adaptive.makespan == base.makespan
        assert ([_result_key(r) for r in adaptive.results]
                == [_result_key(r) for r in base.results])

    def test_begin_run_derives_memory_bounded_cap(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        ctrl = PlacementController()
        exp.run_schedule(n_steps=2, n_buckets=4, controller=ctrl)
        assert ctrl.min_buckets == 4
        assert ctrl.max_buckets == 16  # 4x initial, memory-feasible
        assert (exp.staging_memory_needed(1, ctrl.max_buckets)
                <= ctrl.memory_budget_bytes)
        # explicit memory budget tightens the cap below the hard ceiling
        tight = PlacementController(ControlPolicy(
            memory_budget_bytes=exp.staging_memory_needed(1, 6)))
        exp.run_schedule(n_steps=2, n_buckets=4, controller=tight)
        assert tight.max_buckets == 6

    def test_controller_requires_single_shard(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        with pytest.raises(ValueError):
            exp.run_schedule(n_steps=2, n_shards=2,
                             controller=PlacementController())


class TestControlScenario:
    @pytest.fixture(scope="class")
    def report(self):
        return run_control_scenario()

    def test_adaptive_beats_static_under_faults(self, report):
        assert report.improved
        assert report.adaptive_makespan < report.static_makespan
        assert report.speedup > 1.0
        pool = [d for d in report.controller.decisions if d.kind == "pool"]
        assert pool, "expected at least one pool decision under faults"
        assert all(int(d.after) > int(d.before) for d in pool)
        assert all(int(d.after) <= report.controller.max_buckets
                   for d in pool)

    def test_adaptive_never_loses_to_static_across_fault_pressure(self):
        # The 4-bucket pool is underprovisioned, so even the fault-free
        # leg earns a pool-grow decision.
        for crash_times, stall_rate, stall_seconds in (
                ((), 0.0, 2.0), ((30.0,), 0.0, 2.0), ((30.0, 55.0), 0.0, 2.0),
                ((30.0, 55.0), 0.05, 2.0), ((30.0, 55.0), 0.2, 5.0)):
            report = run_control_scenario(dataclasses.replace(
                CONTROL_PLAN, n_steps=8, crash_times=crash_times,
                pull_stall_rate=stall_rate, pull_stall_seconds=stall_seconds))
            assert report.improved, (crash_times, stall_rate)
            assert report.controller.decisions, (crash_times, stall_rate)

    def test_decisions_recorded_to_shared_space(self, report):
        ctrl = report.controller
        versions = ctrl._ds.versions("controller")
        assert len(versions) == len(ctrl.decisions) > 0

    def test_pool_trajectory_tracks_growth(self, report):
        traj = report.controller.pool_trajectory
        assert traj[0] == (0.0, 4)
        assert max(n for _, n in traj) > 4
        assert all(t2 >= t1 for (t1, _), (t2, _) in zip(traj, traj[1:]))

    def test_windowed_probe_series_sampled(self, report):
        series = report.controller.probe_series
        assert "sched.queue_depth" in series
        assert len(series["sched.queue_depth"]) == len(
            report.controller.signal_history)

    def test_report_summary_and_metrics(self, report):
        summary = report.summary()
        json.dumps(summary)  # artifact must be JSON-serializable
        assert summary["improved"] is True
        assert summary["decisions"] == report.controller.decision_log()
        metrics = report.to_metrics()
        assert metrics["controller.speedup"] == pytest.approx(report.speedup)
        assert metrics["controller.decisions"] == float(
            len(report.controller.decisions))

    def test_decision_log_byte_identical_across_same_seed_runs(self, report):
        again = run_control_scenario()
        log_a = report.controller.decision_log_json()
        log_b = again.controller.decision_log_json()
        assert log_a == log_b
        assert json.loads(log_a), "fault scenario must produce decisions"
        assert again.adaptive_makespan == report.adaptive_makespan
        assert again.static_makespan == report.static_makespan


class TestControllerUnderTracing:
    def test_blame_sums_to_makespan_with_controller_active(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        ctrl = PlacementController()
        with tracing() as tracer:
            result = exp.run_schedule(CONTROL_PLAN, controller=ctrl)
        assert len(ctrl.decisions) >= 1
        report = blame(tracer.trace)
        assert report.overall.check(tol=1e-6)
        assert report.overall.window == pytest.approx(result.makespan,
                                                      abs=1e-6)
        # decision instrumentation flows into the metrics registry
        counters = tracer.metrics.counters
        assert counters["controller.decisions"].value == len(ctrl.decisions)
        assert "controller.pool_size" in tracer.metrics.gauges

    def test_tracing_does_not_perturb_decisions(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        plain = PlacementController()
        exp.run_schedule(CONTROL_PLAN, controller=plain)
        traced = PlacementController()
        with tracing():
            exp.run_schedule(CONTROL_PLAN, controller=traced)
        assert plain.decision_log_json() == traced.decision_log_json()


class TestPlacementFlip:
    def test_pull_insitu_when_pool_capped_and_pressure_high(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        pol = ControlPolicy(max_buckets=4, insitu_budget=0.9,
                            cooldown_windows=1,
                            movable=(AnalyticsVariant.STATS_HYBRID.value,))
        ctrl = PlacementController(pol)
        result = exp.run_schedule(_STALLY_PLAN, controller=ctrl)
        flips = [d for d in ctrl.decisions if d.kind == "placement"]
        assert flips
        assert flips[0].before == PLACE_INTRANSIT
        assert flips[0].after == PLACE_INSITU
        assert flips[0].subject == AnalyticsVariant.STATS_HYBRID.value
        assert ctrl.placements[AnalyticsVariant.STATS_HYBRID] == PLACE_INSITU
        # after the flip the completion stage runs on the sim cores
        moved = [r for r in result.results if r.bucket == "sim-insitu"]
        assert moved
        assert {r.analysis for r in moved} == {
            AnalyticsVariant.STATS_HYBRID.value}
        # the pool never outgrew its explicit cap
        assert all(n <= 4 for _, n in ctrl.pool_trajectory)

    def test_push_back_intransit_when_insitu_budget_breached(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        pol = ControlPolicy(max_buckets=4, insitu_budget=0.05,
                            cooldown_windows=1,
                            movable=(AnalyticsVariant.STATS_HYBRID.value,))
        ctrl = PlacementController(pol)
        exp.run_schedule(_STALLY_PLAN, controller=ctrl)
        kinds = [(d.before, d.after) for d in ctrl.decisions
                 if d.kind == "placement"]
        if (PLACE_INTRANSIT, PLACE_INSITU) in kinds:
            # with a 5% budget any pull must eventually be pushed back
            assert (PLACE_INSITU, PLACE_INTRANSIT) in kinds
            assert (ctrl.placements[AnalyticsVariant.STATS_HYBRID]
                    == PLACE_INTRANSIT)

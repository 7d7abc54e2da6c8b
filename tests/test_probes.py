"""Tests for repro.obs.probes: DES-clock sampling and SLO rules."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from repro.core import ExperimentConfig, ScaledExperiment
from repro.des import Engine
from repro.obs.export import to_chrome_trace
from repro.obs.live import SloObjective
from repro.obs.probes import ProbeSampler, default_slos, insitu_share
from repro.obs.tracer import NULL_TRACER, Tracer, tracing
from repro.staging.dataspaces import DataSpaces


def _threshold(name, metric, target):
    """A plain threshold rule: good iff value <= target, judged alone."""
    return SloObjective(name=name, metric=metric, target=target, budget=1.0,
                        fast_window=0.0, slow_window=0.0, fast_burn=1.0,
                        slow_burn=1.0)


class TestProbeSampler:
    def _drive(self, sampler, events):
        """Run a bare engine whose clock hits the given instants."""
        engine = Engine()
        engine.attach_probe(sampler)
        for t in events:
            engine.call_at(t, lambda: None)
        engine.run()
        return engine

    def test_samples_every_interval_boundary(self):
        depth = [0.0]
        sampler = ProbeSampler(1.0, {"q": lambda: depth[0]},
                               tracer=NULL_TRACER)
        self._drive(sampler, [0.5, 2.5, 5.0])
        # boundaries 0,1,2 backfilled at t=2.5; 3,4,5 at t=5.0
        assert [t for t, _ in sampler.series["q"]] == [0, 1, 2, 3, 4, 5]
        assert sampler.n_samples == 6

    def test_sample_sees_live_state(self):
        state = {"v": 0.0}
        sampler = ProbeSampler(1.0, {"v": lambda: state["v"]},
                               tracer=NULL_TRACER)
        engine = Engine()
        engine.attach_probe(sampler)

        def bump():
            state["v"] = 7.0

        engine.call_at(0.5, bump)
        engine.call_at(2.0, lambda: None)
        engine.run()
        assert sampler.series["v"] == [(0.0, 0.0), (1.0, 7.0), (2.0, 7.0)]

    def test_max_samples_caps_backfill(self):
        sampler = ProbeSampler(0.001, {"x": lambda: 1.0}, tracer=NULL_TRACER)
        sampler.max_samples = 10
        self._drive(sampler, [100.0])
        assert sampler.n_samples == 10

    def test_sampled_rule_alerts_once_per_breach_episode(self):
        depth = [0.0]
        rule = _threshold("backlog", "q", 2.0)
        sampler = ProbeSampler(1.0, {"q": lambda: depth[0]},
                               slos=(rule,), tracer=NULL_TRACER)
        engine = Engine()
        engine.attach_probe(sampler)

        def set_depth(v):
            def fn():
                depth[0] = v
            return fn

        engine.call_at(0.5, set_depth(5.0))   # breach at t=1,2 samples
        engine.call_at(2.5, set_depth(1.0))   # recover at t=3
        engine.call_at(4.5, set_depth(9.0))   # second breach at t=5
        engine.call_at(6.0, lambda: None)
        engine.run()
        assert [a.t for a in sampler.alerts] == [1.0, 5.0]
        assert all(a.objective == "backlog" for a in sampler.alerts)

    def test_breach_emits_trace_instant(self):
        depth = [10.0]
        rule = _threshold("backlog", "q", 2.0)
        tracer = Tracer(clock=lambda: 0.0)
        sampler = ProbeSampler(1.0, {"q": lambda: depth[0]},
                               slos=(rule,), tracer=tracer)
        self._drive(sampler, [1.0])
        breaches = [i for i in tracer.trace.instants
                    if i.name == "slo.breach"]
        assert len(breaches) == 1
        assert breaches[0].tags == {"rule": "backlog", "value": 10.0,
                                    "threshold": 2.0}

    def test_finalize_mirrors_gauge_envelope(self):
        values = iter([3.0, 9.0, 1.0])
        tracer = Tracer(clock=lambda: 0.0)
        sampler = ProbeSampler(1.0, {"v": lambda: next(values)},
                               tracer=tracer)
        self._drive(sampler, [0.0, 1.0, 2.0])
        sampler.finalize(tracer.trace)
        gauge = tracer.metrics.gauges["probe.v"]
        assert gauge.value == 1.0
        assert gauge.vmin == 1.0 and gauge.vmax == 9.0
        # Full envelope parity with per-sample set() calls: the sample
        # count is the series length (not the 3 envelope writes the old
        # mirror left behind) and the timestamped series is reproduced.
        assert gauge.n_samples == len(sampler.series["v"]) == 3
        assert list(zip(gauge.times, gauge.values)) == sampler.series["v"]

    def test_finalize_without_tracing_keeps_series_and_alerts(self):
        """A sampler built with tracing off folds into no registry that
        lasts; ``finalize`` used to raise on the null registry's shared
        instrument instead of returning the alerts."""
        rule = _threshold("backlog", "q", 2.0)
        sampler = ProbeSampler(1.0, {"q": lambda: 5.0}, slos=(rule,))
        assert sampler.tracer is NULL_TRACER
        self._drive(sampler, [0.5, 2.0])
        alerts = sampler.finalize(NULL_TRACER.trace)
        assert [(a.objective, a.t) for a in alerts] == [("backlog", 0.0)]
        assert sampler.series["q"] == [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]

    def test_summary_slo_evaluated_at_finalize(self):
        """The trace's in-situ share is judged once, at the last closed
        span's end."""
        tracer = Tracer(clock=lambda: 0.0)
        tracer.add_span("sim", lane="x", t_start=0.0, t_end=3.0,
                        stage="simulation")
        tracer.add_span("vis", lane="x", t_start=3.0, t_end=4.0,
                        stage="insitu")
        slo = _threshold("share", "insitu_share", 0.10)
        sampler = ProbeSampler(1.0, {}, slos=(slo,), tracer=tracer)
        alerts = sampler.finalize(tracer.trace)
        assert [(a.objective, a.t, a.value) for a in alerts] == [
            ("share", 4.0, 0.25)]

    def test_finalize_is_idempotent(self):
        """``run_schedule`` finalizes its sampler already; a second call
        returns the same alerts and folds nothing into the gauges (it
        used to double every ``probe.*`` gauge and the export's counter
        track)."""
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        with tracing() as tracer:
            sampler = exp.run_schedule(
                n_steps=10, n_buckets=8,
                probe_interval=0.25 * exp.simulation_step_time()).probes
        gauge = tracer.metrics.gauges["probe.sched.queue_depth"]
        snapshot = tracer.metrics.snapshot()
        n_events = len(to_chrome_trace(tracer.trace,
                                       tracer.metrics)["traceEvents"])
        alerts = list(sampler.alerts)
        assert gauge.n_samples == 81 and n_events == 2376
        assert sampler.finalize(tracer.trace) is sampler.alerts
        assert sampler.alerts == alerts
        assert tracer.metrics.snapshot() == snapshot
        assert gauge.n_samples == len(gauge.times) == 81
        assert len(to_chrome_trace(tracer.trace,
                                   tracer.metrics)["traceEvents"]) == n_events

    def test_validation(self):
        for interval in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="interval must be a "
                                                 "finite number > 0"):
                ProbeSampler(interval, {})


class TestScheduleIntegration:
    def test_traced_schedule_attaches_probes(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        interval = exp.simulation_step_time() * 0.25
        with tracing():
            sched = exp.run_schedule(n_steps=4, n_buckets=4,
                                     probe_interval=interval)
        sampler = sched.probes
        assert sampler is not None
        assert sampler.n_samples > 0
        assert set(sampler.series) == {
            "sched.queue_depth", "sched.idle_buckets", "bucket.busy",
            "nic.busy_channels", "rdma.live_bytes"}
        # sampling must never disturb the deterministic schedule
        with tracing():
            sched2 = exp.run_schedule(n_steps=4, n_buckets=4)
        assert sched2.makespan == sched.makespan

    def test_untraced_schedule_skips_probes(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        sched = exp.run_schedule(n_steps=2, n_buckets=4,
                                 probe_interval=1.0)
        assert sched.probes is None  # tracer disabled -> no sampler

    def test_insitu_share_slo_breaches_on_topology_workload(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        with tracing():
            sched = exp.run_schedule(
                n_steps=4, n_buckets=4,
                probe_interval=exp.simulation_step_time() * 0.25)
        names = [a.objective for a in sched.probes.alerts]
        # the full hybrid mix runs topology in-situ glue > 5% of the step
        assert "insitu-share" in names

    def test_default_slos_shapes(self):
        backlog, share = default_slos(8)
        assert backlog == replace(
            _threshold("queue-backlog", "sched.queue_depth", 32.0),
            description="scheduler backlog stays within 4x the 8-bucket "
                        "pool")
        assert share == replace(
            _threshold("insitu-share", "insitu_share", 0.05),
            description="in-situ share of the timestep stays within 5% "
                        "(the paper's budget)")
        assert insitu_share({"insitu": 1.0, "simulation": 3.0}) == 0.25
        assert insitu_share({}) == 0.0

    def test_a_share_of_exactly_the_budget_does_not_page(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.add_span("sim", lane="x", t_start=0.0, t_end=19.0,
                        stage="simulation")
        tracer.add_span("vis", lane="x", t_start=19.0, t_end=20.0,
                        stage="insitu")
        assert insitu_share(tracer.trace.stage_totals()) == 0.05
        sampler = ProbeSampler(1.0, {}, slos=default_slos(8), tracer=tracer)
        assert sampler.finalize(tracer.trace) == []

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_probe_interval_is_refused(self, interval):
        """A NaN or infinite interval used to take one sample and stop."""
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        with tracing(), pytest.raises(ValueError, match="interval must be "
                                                        "a finite number"):
            exp.run_schedule(n_steps=4, n_buckets=2, probe_interval=interval)

    @pytest.mark.parametrize("n_shards, n_samples, digest, alert_t", [
        (1, 62, "0c774c653eb3d1ba", 306.47045155636124),
        (2, 65, "9b37194dabe0f40c", 323.4406295113547)],
        ids=["one-space", "two-shards"])
    def test_replay_rows_as_recorded(self, n_shards, n_samples, digest,
                                     alert_t):
        """A seeded replay's gauge rows and SLO alerts, recorded before
        the gauge table moved onto ``DataSpaces.probe_map`` (the sharded
        form summing its shards') and the rule types became one."""
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        with tracing():
            sampler = exp.run_schedule(n_steps=4, n_buckets=2,
                                       probe_interval=5.0,
                                       n_shards=n_shards).probes
        rows = json.dumps(sampler.series, sort_keys=True).encode()
        assert sampler.n_samples == n_samples
        assert hashlib.sha256(rows).hexdigest()[:16] == digest
        assert [(a.objective, a.t, a.value, a.target)
                for a in sampler.alerts] == [
            ("insitu-share", alert_t, 0.208548614372945, 0.05)]

    def test_kept_gauges_equal_their_scans_at_every_tick(self, monkeypatch):
        """``nic.busy_channels`` and ``rdma.live_bytes`` read totals the
        transport keeps as it goes. At every tick of a faulted replay
        (pull failures and stalls, a lease, two crashes each answered by
        a restart) they must equal the scans over every NIC and every
        live region."""
        ticks = []
        probe_map = DataSpaces.probe_map

        def scanned(ds):
            gauges = probe_map(ds)
            nics, registry = ds.transport._nics, ds.transport.registry

            def check():
                busy = gauges["nic.busy_channels"]()
                live = gauges["rdma.live_bytes"]()
                assert busy == sum(nic.in_use for nic in nics.values())
                assert live == sum(registry.lookup(r).nbytes
                                   for r in registry.region_ids())
                ticks.append((busy, live))
                return busy

            return {**gauges, "nic.busy_channels": check}

        monkeypatch.setattr(DataSpaces, "probe_map", scanned)
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        with tracing():
            sched = exp.run_schedule(
                n_steps=12, n_buckets=4, lease_timeout=5.0,
                bucket_restart_delay=1.5, max_bucket_restarts=2,
                crash_times=(30.0, 55.0), pull_failure_rate=0.2,
                pull_stall_rate=0.1, pull_stall_seconds=2.0, fault_seed=3,
                probe_interval=0.25)
        assert {f.kind for f in sched.faults.injected} == {
            "crash", "pull_failure", "pull_stall"}
        assert len(ticks) == sched.probes.n_samples > 1000
        assert max(busy for busy, _ in ticks) > 0
        assert max(live for _, live in ticks) > 0

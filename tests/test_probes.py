"""Tests for repro.obs.probes: DES-clock sampling and SLO rules."""

import hashlib
import json

import pytest

from repro.core import ExperimentConfig, ScaledExperiment
from repro.des import Engine
from repro.obs.export import to_chrome_trace
from repro.obs.probes import (
    ProbeSampler,
    SloRule,
    default_slos,
    insitu_share_slo,
)
from repro.obs.tracer import NULL_TRACER, Tracer, tracing
from repro.staging.dataspaces import DataSpaces


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
        rule = SloRule(name="backlog", probe="q", op="<=", threshold=2.0)
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
        assert all(a.rule == "backlog" for a in sampler.alerts)

    def test_breach_emits_trace_instant(self):
        depth = [10.0]
        rule = SloRule(name="backlog", probe="q", op="<=", threshold=2.0)
        tracer = Tracer(clock=lambda: 0.0)
        sampler = ProbeSampler(1.0, {"q": lambda: depth[0]},
                               slos=(rule,), tracer=tracer)
        self._drive(sampler, [1.0])
        breaches = [i for i in tracer.trace.instants
                    if i.name == "slo.breach"]
        assert len(breaches) == 1
        assert breaches[0].tags["rule"] == "backlog"

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
        rule = SloRule(name="backlog", probe="q", op="<=", threshold=2.0)
        sampler = ProbeSampler(1.0, {"q": lambda: 5.0}, slos=(rule,))
        assert sampler.tracer is NULL_TRACER
        self._drive(sampler, [0.5, 2.0])
        alerts = sampler.finalize(NULL_TRACER.trace)
        assert [(a.rule, a.t) for a in alerts] == [("backlog", 0.0)]
        assert sampler.series["q"] == [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]

    def test_summary_slo_evaluated_at_finalize(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.begin("sim", lane="x", stage="simulation")
        tracer.end(span)
        slo = SloRule(name="nonzero-sim",
                      value_of=lambda totals: totals.get("simulation", 0.0),
                      op=">", threshold=10.0)
        sampler = ProbeSampler(1.0, {}, slos=(slo,), tracer=tracer)
        alerts = sampler.finalize(tracer.trace)
        assert [a.rule for a in alerts] == ["nonzero-sim"]

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
        with pytest.raises(ValueError):
            ProbeSampler(0.0, {})
        with pytest.raises(ValueError):
            SloRule(name="r", probe="p", op="!=", threshold=1.0)


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
        names = [a.rule for a in sched.probes.alerts]
        # the full hybrid mix runs topology in-situ glue > 5% of the step
        assert "insitu-share" in names

    def test_default_slos_shapes(self):
        rules = default_slos(8)
        # describe() as the two rule types gave it before they were one.
        assert [r.describe() for r in rules] == [
            {"name": "queue-backlog", "kind": "sampled",
             "probe": "sched.queue_depth", "op": "<=", "threshold": 32.0,
             "description": "scheduler backlog stays within 4x the "
                            "8-bucket pool"},
            {"name": "insitu-share", "kind": "summary", "op": "<",
             "threshold": 0.05,
             "description": "in-situ share of the timestep stays under 5% "
                            "(the paper's budget)"}]
        share = insitu_share_slo(0.10)
        assert share.healthy(0.05) and not share.healthy(0.20)
        assert share.value_of({"insitu": 1.0, "simulation": 3.0}) == 0.25
        assert share.value_of({}) == 0.0

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
        assert [(a.rule, a.t, a.value, a.threshold)
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

"""The live telemetry plane: bus, burn-rate SLOs, context, the
`repro serve --follow` view."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.live import (
    Alert,
    BurnRateMonitor,
    BusEvent,
    SloObjective,
    TelemetryBus,
    default_objectives,
    event_to_json,
    render_top,
)
from repro.obs.metrics import Gauge
from repro.obs.probes import ProbeSampler, default_slos
from repro.obs.tracer import NULL_TRACER, Tracer, tracing
from repro.service import CampaignService, JobSpec, TenantQuota
from tests.burn_oracle import ScanMonitor


def _threshold(name, metric, target):
    """A plain threshold rule: good iff value <= target, judged alone."""
    return SloObjective(name=name, metric=metric, target=target, budget=1.0,
                        fast_window=0.0, slow_window=0.0, fast_burn=1.0,
                        slow_burn=1.0)


class TestTelemetryBus:
    def test_publish_and_poll_in_order(self):
        bus = TelemetryBus(capacity=8)
        sub = bus.subscribe("reader")
        for i in range(3):
            bus.publish("instant", f"e{i}", t=float(i), tenant="t",
                        job_id="j")
        events = sub.poll()
        assert [e.name for e in events] == ["e0", "e1", "e2"]
        assert [e.seq for e in events] == [0, 1, 2]
        assert sub.poll() == []
        bus.publish("instant", "e3", t=3.0)
        assert [e.name for e in sub.poll()] == ["e3"]

    def test_independent_subscriber_cursors(self):
        bus = TelemetryBus(capacity=8)
        a, b = bus.subscribe("a"), bus.subscribe("b")
        bus.publish("instant", "x", t=0.0)
        assert len(a.poll()) == 1
        bus.publish("instant", "y", t=1.0)
        assert [e.name for e in b.poll()] == ["x", "y"]
        assert [e.name for e in a.poll()] == ["y"]

    def test_late_subscriber_starts_at_retained_head(self):
        bus = TelemetryBus(capacity=2)
        for i in range(5):
            bus.publish("instant", f"e{i}", t=float(i))
        sub = bus.subscribe("late")
        events = sub.poll()
        # Only the retained tail is visible; nothing counts as dropped
        # for a subscriber that never had a claim on the evicted events.
        assert [e.name for e in events] == ["e3", "e4"]
        assert sub.dropped == 0

    def test_overflow_counts_drops_and_cursor_never_regresses(self):
        bus = TelemetryBus(capacity=4)
        sub = bus.subscribe("slow")
        for i in range(4):
            bus.publish("instant", f"e{i}", t=float(i))
        assert [e.name for e in sub.poll()] == ["e0", "e1", "e2", "e3"]
        cursor_after_first = sub.cursor
        # Overflow the ring while the subscriber sleeps: 6 more events
        # into a 4-slot ring evicts e4 and e5 before the next poll.
        for i in range(4, 10):
            bus.publish("instant", f"e{i}", t=float(i))
        assert bus.dropped_total == 6  # e0..e5 evicted overall
        events = sub.poll()
        assert [e.name for e in events] == ["e6", "e7", "e8", "e9"]
        assert sub.dropped == 2  # e4, e5 were lost to this subscriber
        assert sub.cursor == bus.published
        assert sub.cursor >= cursor_after_first  # monotone, never backwards
        assert sub.poll() == [] and sub.cursor == bus.published

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TelemetryBus(capacity=0)

    def test_event_json_is_stable(self):
        event = BusEvent(seq=1, t=2.5, kind="probe", name="q", lane="probe",
                         tenant="a", job_id="a/j#1", data={"value": 3.0})
        line = event_to_json(event)
        assert json.loads(line) == event.to_dict()
        assert line == event_to_json(event)  # same bytes every time


class TestBurnRateMonitor:
    def _objective(self, **kw):
        base = dict(name="slo", metric="m", target=1.0, budget=0.25,
                    fast_window=10.0, slow_window=40.0, fast_burn=2.0,
                    slow_burn=1.0)
        base.update(kw)
        return SloObjective(**base)

    def test_single_bad_observation_fires(self):
        mon = BurnRateMonitor((self._objective(),))
        fired = mon.observe("t", "m", t=0.0, value=2.0, job_id="t/j#1")
        assert len(fired) == 1
        alert = fired[0]
        assert alert.tenant == "t" and alert.objective == "slo"
        assert alert.burn_fast == pytest.approx(4.0)  # 1/1 bad over 0.25
        assert alert.job_id == "t/j#1"
        assert mon.active("t") == [alert]

    def test_good_observations_do_not_fire(self):
        mon = BurnRateMonitor((self._objective(),))
        for t in range(5):
            assert mon.observe("t", "m", t=float(t), value=0.5) == []
        assert mon.active() == []

    def test_sustained_violation_is_one_alert_until_recovery(self):
        mon = BurnRateMonitor((self._objective(),))
        for t in range(4):
            mon.observe("t", "m", t=float(t), value=2.0)
        assert len(mon.alerts) == 1
        # Recovery: enough good samples dilute both windows below their
        # burn thresholds, re-arming the objective...
        for t in range(4, 30):
            mon.observe("t", "m", t=float(t), value=0.5)
        assert mon.active() == []
        # ...so the next violation pages again.
        for t in range(50, 60):
            mon.observe("t", "m", t=float(t), value=2.0)
        assert len(mon.alerts) == 2

    def test_fast_window_forgets_old_badness(self):
        mon = BurnRateMonitor((self._objective(),))
        mon.observe("t", "m", t=0.0, value=2.0)  # fires
        assert len(mon.alerts) == 1
        # 30s later the bad sample left the fast window but not the slow
        # one; a healthy stream must not re-fire.
        for t in range(30, 38):
            mon.observe("t", "m", t=float(t), value=0.5)
        assert len(mon.alerts) == 1

    def test_tenants_are_isolated(self):
        mon = BurnRateMonitor((self._objective(),))
        mon.observe("bad", "m", t=0.0, value=9.0)
        mon.observe("good", "m", t=0.0, value=0.1)
        assert [a.tenant for a in mon.alerts] == ["bad"]
        assert mon.active("good") == []

    def test_unknown_metric_is_ignored(self):
        mon = BurnRateMonitor((self._objective(),))
        assert mon.observe("t", "other", t=0.0, value=99.0) == []

    def test_alerts_publish_on_bus_with_attribution(self):
        bus = TelemetryBus()
        sub = bus.subscribe("s")
        mon = BurnRateMonitor((self._objective(),), bus=bus)
        mon.observe("t", "m", t=1.0, value=5.0, job_id="t/j#1")
        events = sub.poll()
        assert len(events) == 1
        e = events[0]
        assert e.kind == "alert" and e.tenant == "t" and e.job_id == "t/j#1"
        assert e.data["value"] == 5.0 and e.lane == "slo"

    def test_default_objectives(self):
        objs = default_objectives()
        assert {(o.metric, o.target) for o in objs} == {
            ("queue_wait_s", 90.0), ("makespan_slowdown", 3.5)}
        mon = BurnRateMonitor(objs)
        mon.observe("t", "queue_wait_s", t=0.0, value=91.0)
        mon.observe("t", "makespan_slowdown", t=0.0, value=3.0)
        assert [a.metric for a in mon.alerts] == ["queue_wait_s"]

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            self._objective(budget=0.0)
        with pytest.raises(ValueError):
            self._objective(budget=1.5)
        with pytest.raises(ValueError):
            self._objective(fast_window=20.0, slow_window=10.0)
        with pytest.raises(ValueError):
            self._objective(fast_burn=0.0)
        for bad in ({"fast_window": -1.0}, {"fast_window": math.nan},
                    {"slow_window": math.nan}, {"budget": math.nan},
                    {"fast_burn": math.nan}, {"slow_burn": math.nan}):
            with pytest.raises(ValueError):
                self._objective(**bad)
        assert self._objective(fast_window=0.0, slow_window=0.0)

    def test_out_of_order_observation_is_refused(self):
        """Each (tenant, objective) window only moves forward; an earlier
        observation would count later samples inside its window."""
        mon = BurnRateMonitor((self._objective(),))
        mon.observe("t", "m", t=5.0, value=2.0)
        mon.observe("t", "m", t=5.0, value=0.5)  # the same time is in order
        with pytest.raises(ValueError, match="before the previous one"):
            mon.observe("t", "m", t=4.0, value=9.0)
        with pytest.raises(ValueError, match="before the previous one"):
            mon.observe("t", "m", t=math.nan, value=9.0)
        mon.observe("u", "m", t=1.0, value=0.5)  # another tenant's clock
        assert [(a.tenant, a.t) for a in mon.alerts] == [("t", 5.0)]

    def test_alert_round_trips_to_dict(self):
        alert = Alert(tenant="t", objective="o", metric="m", severity="page",
                      t=1.0, value=2.0, target=1.0, burn_fast=4.0,
                      burn_slow=4.0, job_id="t/j#1", message="msg")
        d = alert.to_dict()
        assert d["tenant"] == "t" and d["burn_fast"] == 4.0
        assert json.dumps(d)  # JSON-safe


class TestTracerContextAndBus:
    def test_context_tags_merge_into_spans_and_instants(self):
        tracer = Tracer()
        with tracer.context(tenant="a", job="a/j#1"):
            with tracer.span("work", lane="x"):
                pass
            tracer.instant("ping", lane="x")
            rec = tracer.add_span("modeled", lane="y", t_start=0.0, t_end=1.0)
        span = tracer.trace.closed_spans()[0]
        assert span.tags["tenant"] == "a" and span.tags["job"] == "a/j#1"
        assert tracer.trace.instants[0].tags["tenant"] == "a"
        assert rec.tags["tenant"] == "a"
        # Context is restored on exit.
        tracer.instant("after", lane="x")
        assert "tenant" not in tracer.trace.instants[-1].tags
        assert tracer.ctx == {}

    def test_context_nesting_shadows_and_skips_none(self):
        tracer = Tracer()
        with tracer.context(tenant="outer", job=None):
            assert tracer.ctx == {"tenant": "outer"}
            with tracer.context(tenant="inner"):
                tracer.instant("i", lane="x")
            assert tracer.ctx == {"tenant": "outer"}
        assert tracer.trace.instants[0].tags["tenant"] == "inner"

    def test_explicit_tags_win_over_context(self):
        tracer = Tracer()
        with tracer.context(tenant="ctx"):
            tracer.instant("i", lane="x", tenant="explicit")
        assert tracer.trace.instants[0].tags["tenant"] == "explicit"

    def test_spans_and_instants_publish_on_bus(self):
        tracer = Tracer()
        bus = tracer.attach_bus(TelemetryBus())
        sub = bus.subscribe("s")
        with tracer.context(tenant="a", job="a/j#1"):
            with tracer.span("work", lane="x", stage="insitu"):
                pass
            tracer.instant("sched.assign", lane="sched", bucket=2)
        events = sub.poll()
        assert [(e.kind, e.name) for e in events] == [
            ("span", "work"), ("instant", "sched.assign")]
        span_event = events[0]
        assert span_event.tenant == "a" and span_event.job_id == "a/j#1"
        assert span_event.data["stage"] == "insitu"
        assert events[1].data == {"bucket": 2}

    def test_add_span_publishes_with_des_times(self):
        tracer = Tracer()
        bus = tracer.attach_bus(TelemetryBus())
        sub = bus.subscribe("s")
        tracer.add_span("sim", lane="sim", t_start=1.0, t_end=3.0,
                        stage="simulation")
        e = sub.poll()[0]
        assert e.t == 3.0
        assert e.data["t_start"] == 1.0 and e.data["duration"] == 2.0

    def test_detach_bus_stops_publishing(self):
        tracer = Tracer()
        bus = tracer.attach_bus(TelemetryBus())
        tracer.instant("a", lane="x")
        tracer.attach_bus(None)
        tracer.instant("b", lane="x")
        assert bus.published == 1

    def test_null_tracer_compiles_out(self):
        assert NULL_TRACER.bus is None
        assert NULL_TRACER.attach_bus(TelemetryBus()) is None
        assert NULL_TRACER.bus is None
        with NULL_TRACER.context(tenant="a"):
            pass
        assert not NULL_TRACER.ctx


class TestGaugeMirrorWithLiveSubscribers:
    def _sampler(self, tracer, depth):
        return ProbeSampler(
            interval=1.0, probes={"q": lambda: float(depth[0])},
            slos=(_threshold("backlog", "q", 5.0),),
            tracer=tracer)

    def test_mirror_parity_when_subscriber_reads_mid_finalize(self):
        """A bus subscriber polling between samples and mid-finalize must
        not perturb the gauge envelope/series parity with the probe
        series — the bus is an observer, not a participant."""
        tracer = Tracer(clock=lambda: 0.0)
        bus = tracer.attach_bus(TelemetryBus())
        sub = bus.subscribe("live")
        depth = [0.0]
        sampler = self._sampler(tracer, depth)
        for t in range(6):
            depth[0] = float(t % 4)
            sampler.on_advance(float(t))
            sub.poll()  # interleaved live reads
        # Read once more "mid-finalize": after samples exist but before
        # the mirror runs.
        seen_before_mirror = len(sub.poll())
        sampler.finalize(tracer.trace)
        gauge = tracer.metrics.gauge("probe.q")
        series = sampler.series["q"]
        assert gauge.n_samples == len(series) == 6
        assert gauge.value == series[-1][1]
        assert gauge.vmin == min(v for _t, v in series)
        assert gauge.vmax == max(v for _t, v in series)
        # timestamped parity, not just the envelope
        assert list(zip(gauge.times, gauge.values)) == series
        # Every sample was also streamed; finalize's mirror must not
        # republish samples the subscriber already saw.
        probe_events = [e for e in sub.poll() if e.kind == "probe"]
        assert seen_before_mirror == 0
        assert probe_events == []
        assert bus.published == 6

    def test_mirror_parity_against_per_sample_set(self):
        tracer = Tracer(clock=lambda: 0.0)
        depth = [0.0]
        sampler = self._sampler(tracer, depth)
        reference = Gauge("ref", clock=lambda: 0.0)
        for t in range(8):
            depth[0] = float((t * 3) % 5)
            sampler.on_advance(float(t))
            reference.set(depth[0])
        sampler.finalize(tracer.trace)
        gauge = tracer.metrics.gauge("probe.q")
        assert gauge.value == reference.value
        assert gauge.vmin == reference.vmin
        assert gauge.vmax == reference.vmax
        assert gauge.n_samples == reference.n_samples


class TestProbeAlertDedupe:
    def test_a_name_given_twice_is_refused(self):
        """Windows and the firing latch are keyed by (tenant, name). Two
        objectives named ``x`` on metrics ``a`` and ``b`` shared them: an
        earlier ``b`` raised as out of order, and good ``b`` observations
        diluted a bad ``a`` so that it never paged."""
        with pytest.raises(ValueError, match="'x' is named twice"):
            BurnRateMonitor((SloObjective(name="x", metric="a", target=1.0),
                             SloObjective(name="x", metric="b", target=1.0)))

    def test_a_sampler_refuses_a_name_given_twice(self):
        with pytest.raises(ValueError, match="'shared' is named twice"):
            ProbeSampler(1.0, {"q": lambda: 10.0},
                         slos=(_threshold("shared", "q", 5.0),
                               _threshold("shared", "insitu_share", 0.05)))

    def test_distinct_objectives_judge_one_instant_separately(self):
        """A sampled objective and the in-situ share judged at the same
        instant each alert once."""
        tracer = Tracer(clock=lambda: 0.0)
        sampler = ProbeSampler(1.0, {"sched.queue_depth": lambda: 10.0},
                               slos=default_slos(1), tracer=tracer)
        sampler.on_advance(0.0)
        tracer.add_span("vis", lane="x", t_start=-1.0, t_end=0.0,
                        stage="insitu")
        sampler.finalize(tracer.trace)
        assert [(a.objective, a.t) for a in sampler.alerts] == [
            ("queue-backlog", 0.0), ("insitu-share", 0.0)]
        assert [i.tags["rule"] for i in tracer.trace.instants
                if i.name == "slo.breach"] == ["queue-backlog",
                                               "insitu-share"]


def _specs():
    """3 tenants, one fault-injected: beta's stalls push its replay past
    the 3.5x slowdown target; alpha and gamma stay under it."""
    return [
        JobSpec(tenant="alpha", name="a1", n_steps=4, n_buckets=4),
        JobSpec(tenant="beta", name="b1", n_steps=4, n_buckets=4,
                lease_timeout=5.0, fault_seed=3, pull_stall_rate=0.5,
                pull_stall_seconds=40.0),
        JobSpec(tenant="gamma", name="g1", n_steps=5, n_buckets=4),
    ]


class TestServiceLivePlane:
    def test_faulted_tenant_alerts_clean_tenants_do_not(self):
        bus = TelemetryBus()
        sub = bus.subscribe("test")
        with tracing():
            service = CampaignService(workers=3, bus=bus,
                                      probe_interval=5.0)
            report = service.run_batch(_specs())
        assert report.all_done
        assert report.tenants["beta"].alerts >= 1
        assert report.tenants["alpha"].alerts == 0
        assert report.tenants["gamma"].alerts == 0
        assert [a.tenant for a in report.alerts] == ["beta"]
        assert report.alerts[0].metric == "makespan_slowdown"
        # Every published event is tenant/job-attributed.
        events = sub.poll()
        assert events
        assert all(e.tenant is not None and e.job_id is not None
                   for e in events)
        kinds = {e.kind for e in events}
        assert {"job", "span", "probe", "alert"} <= kinds
        # The replays' probe samples carry the owning job's identity.
        probe = next(e for e in events if e.kind == "probe")
        assert probe.tenant in ("alpha", "beta", "gamma")
        assert probe.job_id.startswith(probe.tenant + "/")

    def test_job_lifecycle_events_in_order_per_job(self):
        bus = TelemetryBus()
        sub = bus.subscribe("test")
        with tracing():
            service = CampaignService(workers=3, bus=bus)
            report = service.run_batch(_specs())
        assert report.all_done
        jobs = {}
        for e in sub.poll():
            if e.kind == "job":
                jobs.setdefault(e.job_id, []).append(e.name)
        assert len(jobs) == 3
        for names in jobs.values():
            assert names == ["job.queued", "job.start", "job.done"]

    def test_single_job_tenant_reports_percentiles(self):
        with tracing():
            service = CampaignService(workers=3)
            report = service.run_batch(_specs())
        for tenant in ("alpha", "beta", "gamma"):
            waits = report.tenants[tenant].to_dict()["service.queue_wait_s"]
            # One done job still yields the full percentile set.
            assert set(waits) == {"p50", "p95", "p99"}
            assert waits["p50"] == waits["p99"]
            assert waits["p99"] == report.tenants[tenant].max_queue_wait

    def test_quota_hold_publishes_held_event(self):
        bus = TelemetryBus()
        sub = bus.subscribe("test")
        specs = [JobSpec(tenant="t", name=f"j{i}", n_steps=2 + i,
                         n_buckets=3) for i in range(2)]
        with tracing():
            service = CampaignService(
                workers=2, bus=bus,
                quotas=[TenantQuota("t", max_concurrent=1)])
            report = service.run_batch(specs)
        assert report.all_done and report.held_events >= 1
        held = [e for e in sub.poll()
                if e.kind == "job" and e.name == "job.held"]
        assert held and held[0].tenant == "t"
        assert "reason" in held[0].data

    def test_event_stream_is_deterministic_across_runs(self):
        def stream():
            bus = TelemetryBus()
            sub = bus.subscribe("test")
            with tracing():
                service = CampaignService(workers=3, bus=bus,
                                          probe_interval=5.0)
                service.run_batch(_specs())
            return [event_to_json(e) for e in sub.poll()]

        first, second = stream(), stream()
        assert first == second

    def test_monitor_exists_without_bus_and_service_clock_restored(self):
        with tracing() as tracer:
            service = CampaignService(workers=2)
            report = service.run_batch(_specs()[:1])
            # After the last job the tracer clock must read the service
            # engine again, not the drained inner replay engine.
            assert tracer._clock() == service.engine.now
        assert report.all_done
        assert service.monitor.alerts == []
        assert service.bus is None

    def test_render_top_frame(self):
        bus = TelemetryBus()
        with tracing():
            service = CampaignService(workers=3, bus=bus)
            report = service.run_batch(_specs())
        frame = render_top(service, bus, service.monitor)
        assert "alpha" in frame and "beta" in frame and "gamma" in frame
        assert "active alerts:" in frame
        assert "beta: makespan-slowdown" in frame
        assert f"{bus.published} events published" in frame
        assert report.all_done


class TestJobSpecFaultKnobs:
    def test_clean_spec_has_no_fault_config(self):
        spec = JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3)
        assert not spec.has_faults()
        assert spec.fault_config() is None

    def test_fault_config_round_trip(self):
        spec = JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3,
                       lease_timeout=5.0, fault_seed=7,
                       crash_times=(10.0, 20.0), pull_failure_rate=0.1,
                       pull_stall_rate=0.2, pull_stall_seconds=3.0)
        cfg = spec.fault_config()
        assert cfg.seed == 7 and cfg.crash_times == (10.0, 20.0)
        assert cfg.pull_stall_seconds == 3.0
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.fault_config() == cfg

    def test_fault_knobs_change_the_cache_key_placement(self):
        clean = JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3)
        faulted = JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3,
                          pull_stall_rate=0.5, pull_stall_seconds=1.0)
        assert clean.placement_dict() != faulted.placement_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3,
                    pull_failure_rate=1.5)
        with pytest.raises(ValueError):
            JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3,
                    pull_stall_seconds=-1.0)
        with pytest.raises(ValueError):
            # crashes without a lease: recovery path would never fire
            JobSpec(tenant="t", name="j", n_steps=2, n_buckets=3,
                    crash_times=(1.0,))
        # Faults on a sharded area are a plan like any other.
        sharded = JobSpec(tenant="t", name="j", n_steps=2, n_buckets=4,
                          n_shards=2, pull_stall_rate=0.1)
        assert sharded.fault_config() is not None


_METRICS = ("m0", "m1")


@st.composite
def _objectives(draw):
    objectives = []
    for i in range(draw(st.integers(1, 3))):
        fast = draw(st.sampled_from((0.5, 1.0, 2.5, 10.0)))
        objectives.append(SloObjective(
            name=f"o{i}", metric=draw(st.sampled_from(_METRICS)),
            target=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
            budget=draw(st.sampled_from((0.05, 0.25, 0.5, 1.0))),
            fast_window=fast,
            slow_window=fast * draw(st.sampled_from((1.0, 2.0, 4.0))),
            fast_burn=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0))),
            slow_burn=draw(st.sampled_from((0.5, 1.0, 2.0)))))
    return tuple(objectives)


_STREAMS = st.lists(st.tuples(
    st.sampled_from(("a", "b", "c")), st.sampled_from(_METRICS),
    st.sampled_from((0.0, 0.0, 0.1, 0.5, 1.0, 3.0, 12.0)),
    st.floats(0.0, 3.0)), max_size=120)


@settings(max_examples=200, deadline=None)
@given(objectives=_objectives(), stream=_STREAMS)
def test_monitor_matches_the_window_scan_oracle(objectives, stream):
    """Over time-ordered streams for several tenants, every burn rate,
    alert and firing state equals a full window rescan's, bit for bit."""
    mon = BurnRateMonitor(objectives)
    oracle = ScanMonitor(objectives)
    budgets = {obj.name: obj.budget for obj in objectives}
    t = 0.0
    for tenant, metric, dt, value in stream:
        t += dt
        fired = mon.observe(tenant, metric, t=t, value=value)
        expected = oracle.observe(tenant, metric, t, value)
        assert ([(a.tenant, a.objective) for a in fired]
                == [key for key, _, _, hit in expected if hit])
        for key, burn_fast, burn_slow, _ in expected:
            windows = mon._windows[key]
            budget = budgets[key[1]]
            assert windows.fast_bad / len(windows.fast) / budget == burn_fast
            assert windows.slow_bad / len(windows.slow) / budget == burn_slow
        assert ({(a.tenant, a.objective) for a in mon.active()}
                == oracle.firing)
    assert [(a.tenant, a.objective, a.t, a.value, a.burn_fast, a.burn_slow)
            for a in mon.alerts] == oracle.alerts


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-2.0, 2.0) | st.sampled_from(
           (0.0, 0.5, 1.0, math.inf, -math.inf, math.nan)), max_size=60),
       target=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(-2.0, 2.0))
def test_zero_window_objective_is_a_threshold_latch(values, target):
    """A zero-window objective fires at exactly the samples where a plain
    latch on ``value <= target`` does: the first bad sample of each run
    of bad ones (NaN is bad)."""
    mon = BurnRateMonitor((_threshold("x", "m", target),))
    fired = [i for i, value in enumerate(values)
             if mon.observe("t", "m", t=float(i), value=value)]
    latched, expected = False, []
    for i, value in enumerate(values):
        if value <= target:
            latched = False
        elif not latched:
            latched = True
            expected.append(i)
    assert fired == expected

"""The byte-accurate capacity plane: ledgers, leaks, headroom, true-up."""

import gc
import json
import weakref

import pytest

from repro.control.controller import PlacementController
from repro.core.runner import ExperimentConfig, ScaledExperiment
from repro.obs.capacity import (
    LEAK_INJECTOR_NODE,
    CapacityLedger,
    CapacityReport,
    capacity_objectives,
    run_capacity_scenario,
)
from repro.obs.events import LedgerEntry
from repro.obs.live import KIND_CAPACITY, TelemetryBus, render_top
from repro.obs.perf import DEFAULT_POLICIES
from repro.obs.tracer import tracing
from repro.service import CampaignService, JobSpec, QuotaManager
from repro.service.cache import schedule_from_dict, schedule_to_dict
from repro.staging import ShardBalanceReport, ShardLoad
from repro.transport.rdma import RdmaRegistry


def _experiment():
    return ScaledExperiment(ExperimentConfig.paper_4896())


class TestLedgerAccounting:
    def test_register_release_books_balance(self):
        led = CapacityLedger()
        reg = RdmaRegistry()
        led.attach_registry(reg)
        region = reg.register("node-a", None, nbytes=100,
                              meta={"analysis": "vis", "timestep": 0})
        assert led.resident_bytes == 100
        reg.release(region.region_id)
        rep = led.finalize()
        assert rep.registered_bytes_total == rep.released_bytes_total == 100
        assert rep.final_resident_bytes == 0
        assert rep.peak_resident_bytes == 100
        assert rep.leaks == []
        assert rep.by_source["node-a"]["registered_bytes"] == 100

    def test_release_outside_context_credits_allocator(self):
        with tracing() as tracer:
            led = CapacityLedger()
            reg = RdmaRegistry()
            led.attach_registry(reg)
            with tracer.context(tenant="t1", job="j1"):
                region = reg.register("node-a", None, nbytes=64)
            # Released outside the allocating context (e.g. by gc).
            reg.release(region.region_id)
            rep = led.finalize()
        assert rep.by_tenant["t1"]["registered_bytes"] == 64
        assert rep.by_tenant["t1"]["released_bytes"] == 64
        release = [e for e in led.entries if e.op == "release"][0]
        assert (release.tenant, release.job) == ("t1", "j1")

    def test_cross_shard_region_id_collision(self):
        """Region ids are minted per registry, so two shards can reuse
        one id — the ledger must keep their books separate."""
        led = CapacityLedger()
        reg0, reg1 = RdmaRegistry(), RdmaRegistry()
        led.attach_registry(reg0, shard="shard0")
        led.attach_registry(reg1, shard="shard1")
        a = reg0.register("sim-agg-0", None, nbytes=100)
        b = reg1.register("sim-agg-0", None, nbytes=700)
        assert a.region_id == b.region_id   # the collision under test
        reg0.release(a.region_id)
        reg1.release(b.region_id)
        rep = led.finalize()
        assert rep.final_resident_bytes == 0
        assert rep.registered_bytes_total == rep.released_bytes_total == 800
        assert rep.by_shard["shard0"]["released_bytes"] == 100
        assert rep.by_shard["shard1"]["released_bytes"] == 700
        assert rep.leaks == []

    def test_release_before_attach_still_balances(self):
        """A region the ledger never saw registered is not its to book."""
        reg = RdmaRegistry()
        region = reg.register("node-a", None, nbytes=32)
        led = CapacityLedger()
        led.attach_registry(reg)
        reg.release(region.region_id)
        rep = led.finalize()
        assert rep.registered_bytes_total == rep.released_bytes_total == 0
        assert rep.final_resident_bytes == 0 and not rep.leaks

    def test_injected_leak_is_found_and_attributed(self):
        led = CapacityLedger()
        led.inject_leak(4096)
        reg = RdmaRegistry()
        led.attach_registry(reg)
        rep = led.finalize()
        assert len(rep.leaks) == 1
        leak = rep.leaks[0]
        assert leak["source"] == LEAK_INJECTOR_NODE
        assert leak["nbytes"] == 4096
        assert leak["analysis"] == "injected-leak"
        assert rep.final_resident_bytes == 4096
        assert rep.leaks
        assert [e.op for e in led.entries].count("leak") == 1

    def test_inject_leak_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CapacityLedger().inject_leak(0)


class TestReplayAccounting:
    def test_clean_replay_within_analytic_bound(self):
        sched = _experiment().run_schedule(n_steps=4, n_buckets=4,
                                           capacity=True)
        rep = sched.capacity
        assert rep is not None
        assert rep.analytic_bound_bytes is not None
        assert rep.peak_resident_bytes <= rep.analytic_bound_bytes
        assert rep.headroom_violations == 0
        assert rep.registered_bytes_total == rep.released_bytes_total
        assert rep.final_resident_bytes == 0
        assert rep.leaks == []
        assert rep.n_registers == rep.n_releases > 0
        assert rep.n_transfers > 0
        assert rep.nic_bytes_total == rep.registered_bytes_total
        assert not rep.leaks and rep.headroom_violations == 0

    def test_sharded_scope_sums_are_exact(self):
        sched = _experiment().run_schedule(n_steps=6, n_buckets=4,
                                           n_shards=2, capacity=True)
        rep = sched.capacity
        assert rep.final_resident_bytes == 0
        assert rep.registered_bytes_total == rep.released_bytes_total
        for scopes in (rep.by_shard, rep.by_tenant, rep.by_source):
            assert (sum(s["registered_bytes"] for s in scopes.values())
                    == rep.registered_bytes_total)
            assert (sum(s["released_bytes"] for s in scopes.values())
                    == rep.released_bytes_total)
            assert (sum(s["nic_bytes"] for s in scopes.values())
                    == rep.nic_bytes_total)
        assert set(rep.by_shard) == {"shard0", "shard1"}

    def test_capacity_parameter_semantics(self):
        exp = _experiment()
        assert exp.run_schedule(n_steps=2, n_buckets=3).capacity is None
        assert exp.run_schedule(n_steps=2, n_buckets=3,
                                capacity=True).capacity is not None
        with tracing():
            exp2 = _experiment()
            assert exp2.run_schedule(n_steps=2,
                                     n_buckets=3).capacity is not None
            assert exp2.run_schedule(n_steps=2, n_buckets=3,
                                     capacity=False).capacity is None

    def test_controller_run_binds_ledger(self):
        ctrl = PlacementController()
        sched = _experiment().run_schedule(n_steps=2, n_buckets=3,
                                           controller=ctrl, capacity=True)
        assert sched.controller is ctrl
        assert sched.capacity.final_resident_bytes == 0

    def test_the_event_log_does_not_keep_a_finished_ledger_alive(self):
        # A tracer outlives its runs (`repro serve --jsonl`: one per batch).
        with tracing() as tracer:
            ledger = CapacityLedger()
            _experiment().run_schedule(n_steps=2, n_buckets=2,
                                       capacity=ledger)
            ref = weakref.ref(ledger)
            del ledger
            gc.collect()
            assert ref() is None  # while its deltas are still in the log:
            assert any(type(r) is LedgerEntry for r in tracer.log)


class TestFaultedAccounting:
    def test_crashed_bucket_bytes_released_not_leaked(self):
        """A bucket crash requeues its task and the lease reclaims the
        region — the ledger must see every byte released, zero leaks."""
        sched = _experiment().run_schedule(
            n_steps=6, n_buckets=4, lease_timeout=5.0,
            crash_times=(30.0, 55.0), pull_stall_rate=0.05,
            pull_stall_seconds=2.0, capacity=True)
        rep = sched.capacity
        assert rep.leaks == []
        assert rep.registered_bytes_total == rep.released_bytes_total
        assert rep.final_resident_bytes == 0
        # Faulted runs may legitimately exceed the analytic bound
        # (lease-retained regions), so no bound assertion here.


class TestCapacityScenario:
    def test_same_seed_event_streams_are_byte_identical(self):
        a = run_capacity_scenario()
        b = run_capacity_scenario()
        assert a["events"], "scenario must emit capacity events"
        assert "\n".join(a["events"]) == "\n".join(b["events"])
        assert all(json.loads(line)["kind"] == KIND_CAPACITY
                   for line in a["events"])

    def test_clean_scenario_has_no_leaks_and_exact_tenant_sums(self):
        out = run_capacity_scenario()
        merged = out["merged"]
        assert merged.leaks == []
        assert merged.headroom_violations == 0
        for tenant, rep in out["tenants"].items():
            assert not rep.leaks and rep.headroom_violations == 0, tenant
            assert rep.peak_resident_bytes <= rep.analytic_bound_bytes
        assert (sum(r.registered_bytes_total for r in out["tenants"].values())
                == merged.registered_bytes_total)
        assert (sum(s["registered_bytes"] for s in merged.by_tenant.values())
                == merged.registered_bytes_total)
        assert set(merged.by_tenant) == {"alpha", "beta"}

    def test_injected_leak_scenario_reports_it(self):
        out = run_capacity_scenario(inject_leak=True)
        leaks = out["merged"].leaks
        assert len(leaks) == 1
        assert leaks[0]["source"] == LEAK_INJECTOR_NODE
        assert leaks[0]["nbytes"] == 1 << 20
        # Armed on the last tenant's run, attributed to it.
        assert leaks[0]["tenant"] == "beta"

    def test_report_merge_totals(self):
        out = run_capacity_scenario()
        reports = list(out["tenants"].values())
        merged = CapacityReport.merge(reports)
        assert merged.peak_resident_bytes == max(
            r.peak_resident_bytes for r in reports)
        assert merged.n_transfers == sum(r.n_transfers for r in reports)
        assert merged.analytic_bound_bytes is None
        with pytest.raises(ValueError):
            CapacityReport.merge([])


class TestShardBalanceReport:
    def _report(self, *loads, virtual_nodes=8):
        return ShardBalanceReport(
            loads=[ShardLoad(shard=i, tasks=t, bytes=b, rpcs=r, buckets=k)
                   for i, (t, b, r, k) in enumerate(loads)],
            virtual_nodes=virtual_nodes)

    def test_merge_sums_by_shard_index(self):
        a = self._report((2, 100, 4, 2), (3, 200, 6, 2))
        b = self._report((1, 50, 2, 3), (4, 400, 8, 1))
        merged = ShardBalanceReport.merge([a, b])
        assert merged.n_shards == 2
        assert [(x.tasks, x.bytes, x.rpcs) for x in merged.loads] == \
            [(3, 150, 6), (7, 600, 14)]
        # Buckets are a pool size, not traffic: max, never summed.
        assert [x.buckets for x in merged.loads] == [3, 2]
        assert merged.virtual_nodes == 8

    def test_merge_folds_fewer_shards_into_low_indices(self):
        wide = self._report((1, 10, 1, 1), (1, 10, 1, 1), (1, 10, 1, 1))
        narrow = self._report((5, 50, 5, 2), virtual_nodes=16)
        merged = ShardBalanceReport.merge([wide, narrow])
        assert merged.n_shards == 3
        assert [x.tasks for x in merged.loads] == [6, 1, 1]
        assert merged.virtual_nodes == 16

    def test_round_trip_and_imbalance(self):
        rep = self._report((2, 100, 4, 2), (6, 300, 12, 2))
        again = ShardBalanceReport.from_dict(rep.to_dict())
        assert again.to_dict() == rep.to_dict()
        assert rep.imbalance("tasks") == pytest.approx(6 / 4)
        assert ShardBalanceReport(loads=[]).imbalance() == 1.0
        assert self._report((0, 0, 0, 1)).imbalance("bytes") == 1.0

    def test_sharded_run_emits_balance_report(self):
        sched = _experiment().run_schedule(n_steps=4, n_buckets=4,
                                           n_shards=2)
        rep = sched.shard_balance
        assert rep is not None and rep.n_shards == 2
        assert sum(x.tasks for x in rep.loads) == len(sched.results)

    def test_rpcs_are_what_each_shard_filed(self):
        """A shard's ``rpcs`` is counted without hashing a key, and equals
        the sum of its per-server fold."""
        from repro.des import Engine
        from repro.staging.dataspaces import DataSpaces
        from repro.transport.dart import DartTransport

        engine = Engine()
        sharded = DataSpaces(engine, DartTransport(engine), n_servers=9,
                             n_shards=3)
        sharded.spawn_buckets([f"staging-{i}" for i in range(3)])
        for step in range(12):
            sharded.submit_insitu_result("STATS", step, f"sim-{step}", None,
                                         nbytes=64)
        sharded.shards[1].put("field", 0, 1.0)
        sharded.shutdown_buckets()
        engine.run()
        rpcs = [load.rpcs for load in sharded.balance_report().loads]
        assert rpcs == [sum(shard.server_rpc_counts)
                        for shard in sharded.shards]
        assert sum(rpcs) == 13


class TestBusDropCounters:
    def test_dropped_by_kind_sums_to_dropped_total(self):
        bus = TelemetryBus(capacity=2)
        for i in range(3):
            bus.publish("probe", f"p{i}", t=float(i))
        for i in range(2):
            bus.publish(KIND_CAPACITY, f"c{i}", t=float(i))
        assert bus.dropped_total == 3
        assert bus.dropped_by_kind == {"probe": 3}
        bus.publish("probe", "p3", t=9.0)
        assert bus.dropped_by_kind == {"probe": 3, KIND_CAPACITY: 1}
        assert sum(bus.dropped_by_kind.values()) == bus.dropped_total

    def test_render_top_shows_drops_by_kind(self):
        svc = CampaignService(workers=1)
        bus = TelemetryBus(capacity=1)
        bus.publish("probe", "a", t=0.0)
        bus.publish(KIND_CAPACITY, "b", t=1.0)
        frame = render_top(svc, bus, svc.monitor)
        assert "bus drops by kind" in frame
        assert "probe=1" in frame


class TestQuotaTrueUp:
    def test_true_up_records_and_summary(self):
        qm = QuotaManager([])
        rec = qm.true_up("a", "a/j1", estimated_bytes=100, measured_bytes=60)
        assert rec.delta_bytes == -40
        qm.true_up("a", "a/j2", estimated_bytes=100, measured_bytes=90)
        qm.true_up("b", "b/j1", estimated_bytes=10, measured_bytes=10)
        summary = qm.true_up_summary("a")
        assert summary == {"jobs": 2, "estimated_bytes": 200,
                           "measured_bytes": 150, "delta_bytes": -50}
        assert qm.true_up_summary("c")["jobs"] == 0

    def test_capacity_objectives_are_wired_by_default(self):
        names = {o.name for o in capacity_objectives()}
        assert names == {"staging-memory", "nic-bandwidth"}
        svc = CampaignService(workers=1)
        assert names <= {o.name for o in svc.monitor.objectives}

    def test_service_reconciles_measured_against_estimate(self):
        with tracing():
            svc = CampaignService(workers=1)
            svc.submit(JobSpec(tenant="a", name="one", n_steps=2,
                               n_buckets=3))
            svc.submit(JobSpec(tenant="a", name="two", n_steps=2,
                               n_buckets=3))
            report = svc.run_batch([])
        assert report.all_done
        # Both jobs true-up — the second through the schedule cache, so
        # its measured bytes round-trip identically.
        assert len(svc.quota.true_ups) == 2
        first, second = svc.quota.true_ups
        assert first.measured_bytes == second.measured_bytes > 0
        tenant = report.tenants["a"]
        assert tenant.staging_measured_bytes == 2 * first.measured_bytes
        assert tenant.staging_estimated_bytes >= tenant.staging_measured_bytes
        assert tenant.staging_delta_bytes == (tenant.staging_measured_bytes
                                              - tenant.staging_estimated_bytes)
        assert "staging_measured_bytes" in tenant.to_dict()


class TestCacheCapacityRoundTrip:
    def test_schedule_cache_preserves_capacity_report_exactly(self):
        sched = _experiment().run_schedule(n_steps=2, n_buckets=3,
                                           capacity=True)
        again = schedule_from_dict(schedule_to_dict(sched))
        assert again.capacity is not None
        assert (json.dumps(again.capacity.to_dict(series_cap=None),
                           sort_keys=True)
                == json.dumps(sched.capacity.to_dict(series_cap=None),
                              sort_keys=True))

    def test_capacityless_schedule_round_trips(self):
        sched = _experiment().run_schedule(n_steps=2, n_buckets=3)
        assert schedule_from_dict(schedule_to_dict(sched)).capacity is None


class TestPerfGatePolicies:
    def test_capacity_policies_registered(self):
        names = {p.pattern for p in DEFAULT_POLICIES}
        assert {"capacity.leaked_regions", "capacity.headroom_violations",
                "capacity.headroom_bytes", "capacity.*"} <= names

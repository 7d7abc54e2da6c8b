"""The multi-tenant campaign service: queue, quota, shards, cache, API."""

import pytest

from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.core.workload import AnalyticsVariant
from repro.des import Engine
from repro.machine.specs import jaguar_xk6
from repro.obs.perf import RunStore
from repro.service import (
    CampaignService,
    Job,
    JobQueue,
    JobSpec,
    JobState,
    QuotaManager,
    ScheduleCache,
    TenantQuota,
    schedule_cache_key,
)
from repro.service.cache import schedule_from_dict, schedule_to_dict
from repro.service.quota import JobDemand
from repro.staging.dataspaces import DataSpaces
from repro.transport.dart import DartTransport


def _spec(**kw):
    base = dict(tenant="t", name="j", n_steps=2, n_buckets=3)
    base.update(kw)
    return JobSpec(**base)


def _serial(spec):
    return ScaledExperiment(spec.experiment_config()).run_schedule(
        n_steps=spec.n_steps, analyses=spec.variants(),
        n_buckets=spec.n_buckets, analysis_interval=spec.analysis_interval,
        n_shards=spec.n_shards)


class TestJobSpec:
    def test_round_trip(self):
        spec = _spec(n_shards=2, n_buckets=4, analyses=("VIS_HYBRID",))
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_every_field_is_in_exactly_one_group(self):
        from repro.service.queue import (
            IDENTITY_FIELDS,
            PLACEMENT_FIELDS,
            WORKLOAD_FIELDS,
        )
        grouped = IDENTITY_FIELDS + WORKLOAD_FIELDS + PLACEMENT_FIELDS
        assert sorted(grouped) == sorted(JobSpec.__dataclass_fields__)

    @pytest.mark.parametrize("spec, digest", [
        (JobSpec(tenant="a", name="j"),
         "21284eca5330ccb19e47c3c989dc55c47fdcbeb3eb0ec554ac569239d2bbe47f"),
        (JobSpec(tenant="b", name="k", config="paper_9440", n_steps=6,
                 n_buckets=5, analysis_interval=2, analyses=("TOPO_HYBRID",),
                 lease_timeout=30.0, bucket_restart_delay=2.0,
                 max_bucket_restarts=1, fault_seed=3, crash_times=(12.5,),
                 pull_failure_rate=0.1, pull_stall_rate=0.2,
                 pull_stall_seconds=0.5),
         "821ac43b1ca4a24eda4947bcc9efff1f9210b5ee8348083c1220002c461a08f1"),
    ], ids=["clean", "faulted"])
    def test_cache_key_is_pinned(self, spec, digest):
        """On-disk schedule caches stay valid: a clean spec and a faulted,
        unsharded one keep the keys they have always had."""
        assert schedule_cache_key({"name": "m"}, spec.workload_dict(),
                                  spec.placement_dict()) == digest

    def test_spec_owns_its_cache_key(self):
        """``JobSpec.cache_key()`` is the explicit formula over the machine
        the spec's experiment replays on, and ignores who asked and when."""
        import dataclasses

        from repro.obs.perf import machine_fingerprint

        spec = JobSpec(tenant="a", name="j")
        for config in ("paper_4896", "paper_9440"):
            s = dataclasses.replace(spec, config=config)
            machine = ScaledExperiment(s.experiment_config()).machine
            assert s.cache_key() == schedule_cache_key(
                machine_fingerprint(machine), s.workload_dict(),
                s.placement_dict())
        # The real-machine key on-disk caches were written under.
        assert spec.cache_key() == ("8052e8c20f1692a6fb62ab7b1a026c01"
                                    "04b92caa6e42072d858787fb4492dd91")
        moved = dataclasses.replace(spec, tenant="b", name="k", submit_at=2.0)
        assert moved.cache_key() == spec.cache_key()
        assert dataclasses.replace(spec, n_steps=3).cache_key() \
            != spec.cache_key()

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job fields"):
            JobSpec.from_dict({**_spec().to_dict(), "bogus": 1})

    @pytest.mark.parametrize("kw", [
        dict(tenant=""),
        dict(config="paper_1"),
        dict(n_steps=0),
        dict(n_buckets=0),
        dict(analysis_interval=0),
        dict(n_shards=0),
        dict(n_shards=4, n_buckets=3),   # fewer buckets than shards
        dict(analyses=("NOPE",)),
        dict(analyses=()),
        dict(submit_at=-1.0),
        # A replay runs only in-transit stages: no in-situ-only variant,
        # and no variant twice.
        dict(analyses=("VIS_INSITU",)),
        dict(analyses=("STATS_INSITU", "TOPO_HYBRID")),
        dict(analyses=("TOPO_HYBRID", "TOPO_HYBRID")),
        # Recovery knobs refused where the spec is made, not mid-replay.
        dict(lease_timeout=0.0),
        dict(lease_timeout=-1.0),
        dict(bucket_restart_delay=-5.0, lease_timeout=5.0),
        dict(max_bucket_restarts=-1),
        # Counts are ints (a bool is not a count); rates are numbers.
        dict(n_buckets=True),
        dict(n_steps=2.5),
        dict(max_bucket_restarts=1.5),
        dict(pull_stall_rate="0.5"),
        dict(crash_times=("soon",), lease_timeout=5.0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            _spec(**kw)

    @pytest.mark.parametrize("line", [5, "abc", ["tenant", "t"], None])
    def test_from_dict_refuses_a_line_that_is_not_an_object(self, line):
        with pytest.raises(ValueError, match="must be a JSON object"):
            JobSpec.from_dict(line)

    def test_spec_is_a_plan(self):
        """A spec replays exactly as the plan of its replay fields."""
        spec = _spec(n_steps=3, n_buckets=4, analyses=("TOPO_HYBRID",))
        assert isinstance(spec, ReplayPlan)
        plan = ReplayPlan(n_steps=3, n_buckets=4, analyses=("TOPO_HYBRID",))
        exp = ScaledExperiment(spec.experiment_config())
        assert exp.run_schedule(spec).results == exp.run_schedule(
            plan).results
        assert spec.variants() == plan.variants()

    def test_variants_resolve(self):
        spec = _spec(analyses=("TOPO_HYBRID", "STATS_HYBRID"))
        assert spec.variants() == (AnalyticsVariant.TOPO_HYBRID,
                                   AnalyticsVariant.STATS_HYBRID)


class TestJobQueue:
    def _job(self, tenant, name):
        return Job(spec=_spec(tenant=tenant, name=name),
                   job_id=f"{tenant}/{name}")

    def test_fair_share_round_robin(self):
        """A flooding tenant only queues behind itself."""
        q = JobQueue()
        for i in range(3):
            q.push(self._job("hog", f"h{i}"))
        q.push(self._job("small", "s0"))
        order = [q.pop_runnable(lambda job: None).job_id for _ in range(4)]
        # The hog gets the first slot (FIFO arrival), then service
        # alternates, so `small` is not starved behind the hog's backlog.
        assert order.index("small/s0") <= 1
        assert q.pop_runnable(lambda job: None) is None

    def test_transient_denial_holds_job(self):
        from repro.service.quota import Denial

        q = JobQueue()
        job = self._job("a", "j0")
        q.push(job)
        assert q.pop_runnable(lambda job: Denial("over quota")) is None
        assert job.held == 1
        assert job.held_reasons == ["over quota"]
        assert q.pop_runnable(lambda job: None) is job

    def test_permanent_denial_fails_job_and_advances(self):
        from repro.service.quota import Denial

        q = JobQueue()
        doomed = self._job("a", "big")
        ok = self._job("a", "ok")
        q.push(doomed)
        q.push(ok)

        def admit(job):
            if job is doomed:
                return Denial("too big", permanent=True)
            return None

        assert q.pop_runnable(admit) is ok
        assert doomed.state is JobState.FAILED
        assert doomed.error == "too big"


class TestQuota:
    def test_concurrency_budget(self):
        qm = QuotaManager([TenantQuota("a", max_concurrent=1)])
        demand = JobDemand()
        assert qm.check("a", demand) is None
        qm.acquire("a", demand)
        denial = qm.check("a", demand)
        assert denial is not None and not denial.permanent
        qm.release("a", demand)
        assert qm.check("a", demand) is None

    def test_staging_bytes_budget(self):
        qm = QuotaManager([TenantQuota("a", staging_bytes=100,
                                       max_concurrent=8)])
        qm.acquire("a", JobDemand(staging_bytes=70))
        denial = qm.check("a", JobDemand(staging_bytes=40))
        assert denial is not None and not denial.permanent

    def test_unsatisfiable_demand_is_permanent(self):
        qm = QuotaManager([TenantQuota("a", staging_bytes=100)])
        denial = qm.check("a", JobDemand(staging_bytes=101))
        assert denial is not None and denial.permanent
        denial = qm.check("a", JobDemand(cores=10**9))
        assert denial is None  # no core budget set
        qm2 = QuotaManager([TenantQuota("a", max_cores=8)])
        assert qm2.check("a", JobDemand(cores=9)).permanent

    def test_default_quota_applies_to_unknown_tenants(self):
        qm = QuotaManager(default=TenantQuota("*", max_concurrent=1))
        qm.acquire("anyone", JobDemand())
        assert qm.check("anyone", JobDemand()) is not None

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            QuotaManager().release("a", JobDemand())

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota("a", max_concurrent=0)
        with pytest.raises(ValueError):
            TenantQuota("a", staging_bytes=0)


class TestShardedDataSpaces:
    def _make(self, n_shards=2, **kw):
        engine = Engine()
        sds = DataSpaces(engine, DartTransport(engine, jaguar_xk6().network),
                         n_shards=n_shards, **kw)
        return engine, sds

    def test_spawn_requires_bucket_per_shard(self):
        engine, sds = self._make(3)
        with pytest.raises(ValueError, match="one bucket per shard"):
            sds.spawn_buckets(["b0", "b1"])

    def test_sharded_replay_matches_accounting(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        sched = exp.run_schedule(n_steps=4, n_buckets=4, n_shards=2)
        assert len(sched.results) == 4 * 3  # three hybrid variants per step
        acc_results = sorted(r.task_id for r in sched.results)
        assert len(set(acc_results)) == len(acc_results)
        assert sched.shard_balance is not None
        bal = sched.shard_balance
        assert bal.n_shards == 2
        assert sum(load.tasks for load in bal.loads) == 12
        assert sum(load.buckets for load in bal.loads) == 4
        assert bal.imbalance("tasks") >= 1.0

    def test_sharded_replay_is_deterministic(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        a = exp.run_schedule(n_steps=3, n_buckets=4, n_shards=2)
        b = exp.run_schedule(n_steps=3, n_buckets=4, n_shards=2)
        assert a.results == b.results
        assert a.makespan == b.makespan

    def test_single_shard_path_unchanged(self):
        """n_shards=1 must go down the classic DataSpaces path."""
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        classic = exp.run_schedule(n_steps=3, n_buckets=4)
        explicit = exp.run_schedule(n_steps=3, n_buckets=4, n_shards=1)
        assert classic.results == explicit.results
        assert explicit.shard_balance is None


class TestScheduleCache:
    def test_key_sensitivity(self):
        spec = _spec()
        machine = {"name": "m"}
        base = schedule_cache_key(machine, spec.workload_dict(),
                                  spec.placement_dict())
        other = schedule_cache_key(machine,
                                   _spec(n_steps=3).workload_dict(),
                                   spec.placement_dict())
        moved = schedule_cache_key(machine, spec.workload_dict(),
                                   _spec(n_buckets=4).placement_dict())
        assert base != other
        assert base != moved
        assert base == schedule_cache_key(machine, spec.workload_dict(),
                                          spec.placement_dict())

    def test_round_trip_is_exact(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        sched = exp.run_schedule(n_steps=3, n_buckets=4, n_shards=2)
        again = schedule_from_dict(schedule_to_dict(sched))
        assert again.results == sched.results
        assert again.makespan == sched.makespan
        assert again.shard_balance.to_dict() == sched.shard_balance.to_dict()

    def test_persistence_through_run_store(self, tmp_path):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        sched = exp.run_schedule(n_steps=2, n_buckets=3)
        cache = ScheduleCache(tmp_path / "cache")
        cache.insert("k1", sched)
        assert cache.lookup("missing") is None
        hit = cache.lookup("k1")
        assert hit.results == sched.results
        assert cache.hits == 1 and cache.misses == 1

        # A fresh cache over the same store warms up from disk, and the
        # JSON round trip preserves every float exactly.
        warm = ScheduleCache(tmp_path / "cache")
        assert "k1" in warm._mem
        assert warm.lookup("k1").results == sched.results
        assert (warm.hits, warm.misses) == (1, 0)
        # Cache records ride the RunStore contract.
        recs = RunStore(tmp_path / "cache").records()
        assert [r.source for r in recs] == ["schedule-cache"]

    def test_hits_share_one_decoded_entry(self, monkeypatch):
        """N hits on a key decode its summary exactly once, lazily (an
        insert decodes nothing), and every hit is the same object."""
        from repro.service import cache as cache_mod

        decoded = []
        real = cache_mod.schedule_from_dict

        def counting(summary):
            decoded.append(summary)
            return real(summary)

        monkeypatch.setattr(cache_mod, "schedule_from_dict", counting)
        sched = ScaledExperiment(ExperimentConfig.paper_4896()).run_schedule(
            n_steps=2, n_buckets=3)
        cache = ScheduleCache()
        cache.insert("k", sched)
        assert decoded == []
        hits = [cache.lookup("k") for _ in range(5)]
        assert len(decoded) == 1
        assert all(hit is hits[0] for hit in hits)
        # Decoded from the summary, never the inserted result itself.
        assert hits[0] is not sched and hits[0].assignments == []
        assert hits[0].results == sched.results
        assert cache.hits == 5 and cache.misses == 0

    def test_reinsert_replaces_summary_and_decoded_entry(self, tmp_path):
        """A stale decoded object is never served: re-inserting a key
        replaces what later hits see, in memory and after a reopen."""
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        old = exp.run_schedule(n_steps=2, n_buckets=3)
        new = exp.run_schedule(n_steps=3, n_buckets=3)
        cache = ScheduleCache(tmp_path / "cache")
        cache.insert("k", old)
        assert cache.lookup("k").results == old.results
        cache.insert("k", new)
        hit = cache.lookup("k")
        assert hit.results == new.results and hit.n_steps == 3
        assert len(cache._mem) == 1
        assert (cache.hits, cache.misses) == (2, 0)

        reopened = ScheduleCache(tmp_path / "cache")
        assert len(reopened._mem) == 1
        assert reopened.lookup("k").results == new.results
        assert (reopened.hits, reopened.misses) == (1, 0)

    @pytest.mark.parametrize("damage", [
        lambda summary: summary.pop("results"),
        lambda summary: summary["results"][0].pop(),
        lambda summary: summary.update(results=None),
        lambda summary: summary.update(capacity={"bogus_field": 1}),
        lambda summary: summary.pop("failed_tasks"),
    ], ids=["no-results-column", "truncated-row", "null-results",
            "foreign-capacity", "older-entry"])
    def test_damaged_entry_is_a_counted_miss(self, tmp_path, damage):
        """A stored summary that no longer decodes is dropped, counted and
        replayed — it must not FAIL every job that shares its key."""
        import json

        spec = _spec(n_steps=2)
        store = RunStore(tmp_path / "cache")
        first = CampaignService(workers=1, cache=ScheduleCache(store))
        assert first.run_batch([spec]).all_done
        # Damage the stored line by hand.
        (line,) = store.path.read_text().splitlines()
        doc = json.loads(line)
        damage(doc["meta"]["schedule"])
        store.path.write_text(json.dumps(doc) + "\n")

        cache = ScheduleCache(store)
        assert spec.cache_key() in cache._mem  # opens without decoding
        svc = CampaignService(workers=1, cache=cache)
        report = svc.run_batch([spec, _spec(name="again", n_steps=2)])
        assert report.all_done, [j.error for j in report.jobs]
        assert cache.decode_errors == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert [j.cache_hit for j in report.jobs] == [False, True]
        assert report.jobs[0].result.results == _serial(spec).results
        assert report.cache_decode_errors == 1
        assert report.to_dict()["cache_decode_errors"] == 1
        assert "1 decode error(s)" in report.table()

        # The replay re-inserted a good entry: the store has healed.
        healed = ScheduleCache(store)
        report = CampaignService(workers=1, cache=healed).run_batch([spec])
        assert report.cache_hit_rate == 1.0 and healed.decode_errors == 0
        assert "cache_decode_errors" not in report.to_dict()
        assert "decode error" not in report.table()


class TestLostTasks:
    def test_fresh_run_and_cache_hit_report_the_lost_tasks(self):
        """Replays submit tasks without retries: a failed pull is terminal
        and leaves no result. Both the replay and a hit of it say so."""
        lossy = dict(n_steps=4, n_buckets=4, pull_failure_rate=0.5,
                     fault_seed=3)
        report = CampaignService(workers=1).run_batch(
            [_spec(**lossy), _spec(name="again", **lossy)])
        fresh, hit = report.jobs
        assert report.all_done and (fresh.cache_hit, hit.cache_hit) == (
            False, True)
        for job in (fresh, hit):
            assert job.result.failed_tasks == 5
            assert len(job.result.results) == 4 * 3 - 5
            assert job.to_dict()["failed_tasks"] == 5
        assert report.tenants["t"].to_dict()["failed_tasks"] == 10
        assert report.table().splitlines()[-1] == (
            "tasks: 10 in-transit task(s) failed terminally and left no "
            "result")

    def test_clean_replays_report_none(self):
        exp = ScaledExperiment(ExperimentConfig.paper_4896())
        assert exp.run_schedule(n_steps=3, n_buckets=4).failed_tasks == 0
        assert exp.run_schedule(n_steps=3, n_buckets=4,
                                n_shards=2).failed_tasks == 0
        report = CampaignService(workers=1).run_batch([_spec()])
        assert report.jobs[0].result.failed_tasks == 0
        assert "failed terminally" not in report.table()


class TestCampaignService:
    BATCH = [
        dict(tenant="alpha", name="a1", n_steps=3, n_buckets=4),
        dict(tenant="alpha", name="a2", n_steps=2, n_buckets=3),
        dict(tenant="beta", name="b1", n_steps=3, n_buckets=4, n_shards=2),
        dict(tenant="beta", name="b2", n_steps=2, n_buckets=4, n_shards=2),
        dict(tenant="gamma", name="g1", n_steps=3, n_buckets=5),
        dict(tenant="gamma", name="g2", n_steps=2, n_buckets=5),
    ]

    def _batch(self):
        return [JobSpec(**kw) for kw in self.BATCH]

    def test_batch_quota_cache_and_bit_identity(self, tmp_path):
        """The ISSUE acceptance scenario: 6 jobs, 3 tenants, quota held,
        results bit-identical to serial replays, 100% cache hit rate on
        resubmission."""
        svc = CampaignService(
            workers=3,
            quotas=[TenantQuota("gamma", max_concurrent=1)],
            cache=ScheduleCache(tmp_path / "cache"),
            jobs_store=RunStore(tmp_path / "jobs"))
        report = svc.run_batch(self._batch())

        assert report.all_done
        assert set(report.tenants) == {"alpha", "beta", "gamma"}
        # Quota enforcement: gamma's second job was held (queued, not
        # run) until its first finished.
        g1, g2 = [j for j in svc.jobs if j.tenant == "gamma"]
        assert g2.held > 0
        assert g2.start_t >= g1.finish_t
        assert report.held_events > 0
        assert report.tenants["gamma"].held_events == g2.held

        # Bit-identical to the same jobs run serially through
        # ScaledExperiment (fresh engine per replay).
        for job in svc.jobs:
            serial = _serial(job.spec)
            assert job.result.results == serial.results, job.job_id
            assert job.result.makespan == serial.makespan

        # Resubmitting the identical batch hits the cache for every job
        # — and cached results stay bit-identical to serial ones.
        svc2 = CampaignService(workers=3,
                               cache=ScheduleCache(tmp_path / "cache"))
        report2 = svc2.run_batch(self._batch())
        assert report2.all_done
        assert report2.cache_hit_rate == 1.0
        assert all(j.cache_hit for j in svc2.jobs)
        for job in svc2.jobs:
            serial = _serial(job.spec)
            assert job.result.results == serial.results, job.job_id
        # Cache hits are free on the service clock.
        assert report2.duration == 0.0

        # Job records landed in the store.
        recs = RunStore(tmp_path / "jobs").records()
        assert len(recs) == 6
        assert {r.meta["tenant"] for r in recs} == {"alpha", "beta", "gamma"}

    def test_executor_builds_one_experiment_per_config(self, monkeypatch):
        """demand / execute share one ScaledExperiment per distinct
        config, and a warm executor (experiment and its closed forms
        already memoised) still replays bit-identically."""
        from repro.service import api

        built = []

        class Counting(ScaledExperiment):
            def __init__(self, config, **kw):
                built.append(config.name)
                super().__init__(config, **kw)

        monkeypatch.setattr(api, "ScaledExperiment", Counting)
        executor = api.JobExecutor(ScheduleCache())
        specs = [_spec(name="a", n_steps=2), _spec(name="b", n_steps=3),
                 _spec(name="c", n_steps=2, config="paper_9440", n_buckets=4)]
        for spec in specs + specs:  # second pass: warm executor, cache hits
            demand = executor.demand(spec)
            sched, _ = executor.execute(spec)
            serial = _serial(spec)
            assert sched.results == serial.results, spec.name
            assert repr(sched.makespan) == repr(serial.makespan)
            assert demand.staging_bytes == ScaledExperiment(
                spec.experiment_config()).staging_memory_needed(
                    spec.analysis_interval, spec.n_buckets)
        assert sorted(built) == ["4896 cores", "9440 cores"]
        # A warm executor replaying a *new* spec of a known config.
        fresh = _spec(name="d", n_steps=4)
        assert executor.execute(fresh)[0].results == _serial(fresh).results
        assert len(built) == 2

    def test_warm_batch_leaves_served_results_untouched(self):
        """Hits share one decoded result per key, so nothing on the
        service path (api / queue / quota, quota true-up and the live
        plane included) may mutate it: after traced warm batches every
        decoded entry still deep-equals a fresh decode of its summary."""
        from repro.obs.live import TelemetryBus
        from repro.obs.tracer import tracing
        from repro.service import cache as cache_mod

        cache = ScheduleCache()
        with tracing():
            # Traced cold batch: the cached results carry capacity
            # reports, so warm jobs walk the true-up path too.
            assert CampaignService(workers=3, cache=cache).run_batch(
                self._batch()).all_done
            summaries = dict(cache._mem)  # inserted, not yet decoded
            assert all(type(s) is dict for s in summaries.values())
            for _ in range(2):
                svc = CampaignService(
                    workers=3, cache=cache, bus=TelemetryBus(),
                    quotas=[TenantQuota("gamma", max_concurrent=1)])
                report = svc.run_batch(self._batch())
                assert report.all_done and report.cache_hit_rate == 1.0
                report.to_dict(), report.table()
        assert len(cache._mem) == len(summaries) == 6
        for key, summary in summaries.items():
            served = cache._mem[key]
            assert served.capacity is not None
            assert served == cache_mod.schedule_from_dict(summary)
            assert cache_mod.schedule_to_dict(served) == summary
        # Two jobs of one key in one batch are served the same object.
        twins = CampaignService(workers=2, cache=cache).run_batch(
            [_spec(tenant="x", name="p", n_steps=3, n_buckets=4),
             _spec(tenant="y", name="q", n_steps=3, n_buckets=4)])
        assert twins.jobs[0].result is twins.jobs[1].result
        assert twins.tenants["x"].bytes_pulled == sum(
            r.bytes_pulled for r in twins.jobs[0].result.results)

    def test_queue_wait_accounting(self):
        """With one worker, job 2's queue wait equals job 1's makespan."""
        svc = CampaignService(workers=1)
        j1 = svc.submit(_spec(tenant="a", name="one", n_steps=2))
        j2 = svc.submit(_spec(tenant="a", name="two", n_steps=3))
        svc.run()
        assert j1.queue_wait == 0.0
        assert j2.queue_wait == pytest.approx(j1.result.makespan)
        assert j2.start_t == j1.finish_t

    def test_unsatisfiable_job_fails_without_deadlock(self):
        svc = CampaignService(
            workers=1, quotas=[TenantQuota("a", staging_bytes=1,
                                           max_concurrent=4)])
        doomed = svc.submit(_spec(tenant="a", name="big", n_steps=2))
        ok = svc.submit(_spec(tenant="b", name="fine", n_steps=2))
        report = svc.run()
        assert doomed.state is JobState.FAILED
        assert "staging bytes" in doomed.error
        assert ok.state is JobState.DONE
        assert report.tenants["a"].failed == 1

    def test_failing_job_is_contained(self):
        """A job that blows up mid-execute fails alone; the worker and
        the rest of the batch keep going."""
        svc = CampaignService(workers=1)
        bad = svc.submit(_spec(tenant="a", name="bad", n_steps=2))
        good = svc.submit(_spec(tenant="a", name="good", n_steps=2,
                                n_buckets=4))

        original = svc.executor.execute

        def explode(spec):
            if spec.name == "bad":
                raise RuntimeError("boom")
            return original(spec)

        svc.executor.execute = explode
        report = svc.run()
        assert bad.state is JobState.FAILED
        assert "boom" in bad.error
        assert good.state is JobState.DONE
        assert not report.all_done

    def test_submit_at_staggers_arrivals(self):
        svc = CampaignService(workers=2)
        early = svc.submit(_spec(tenant="a", name="early", n_steps=2))
        late = svc.submit(_spec(tenant="a", name="late", n_steps=2,
                                n_buckets=4, submit_at=50.0))
        svc.run()
        assert early.submit_t == 0.0
        assert late.submit_t == 50.0
        assert late.start_t >= 50.0

    def test_report_serializes(self, tmp_path):
        import json

        svc = CampaignService(workers=2)
        report = svc.run_batch([_spec(tenant="a", name="j", n_steps=2,
                                      n_shards=2, n_buckets=4)])
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["all_done"] is True
        assert parsed["jobs"][0]["spec"]["tenant"] == "a"
        assert parsed["shard_balance"]["n_shards"] == 2
        assert "a" not in parsed["quotas"]  # only explicit + default
        assert parsed["quotas"]["*"]["max_concurrent"] == 2
        assert "tenant" in report.table()

    def test_a_drained_service_takes_no_new_jobs(self):
        """``run`` releases the worker pool; the next batch goes to a new
        service, which may share the cache."""
        svc = CampaignService(workers=1)
        svc.run_batch([_spec()])
        assert svc.pool.closed
        with pytest.raises(RuntimeError, match="has drained"):
            svc.submit(_spec(name="late"))
        again = CampaignService(workers=1, cache=svc.cache)
        assert again.run_batch([_spec(name="late")]).cache_hit_rate == 1.0

    def test_hit_cost_does_not_grow_with_batch_size(self):
        """Per hit, a 2,000-hit single-tenant batch costs under 3x what a
        200-hit batch does. A ratio of two runs on one host, so host speed
        cancels; rescanning the burn-rate window on every observation
        made it about 10x."""
        import time

        cache = ScheduleCache()
        spec = _spec(tenant="a", name="hit")
        CampaignService(cache=cache).run_batch([spec])

        def per_hit(n: int) -> float:
            best = float("inf")
            for _ in range(3):
                svc = CampaignService(workers=2, cache=cache)
                t0 = time.perf_counter()
                report = svc.run_batch([spec] * n)
                best = min(best, (time.perf_counter() - t0) / n)
                assert report.cache_hits == n
            return best

        assert per_hit(2000) < 3 * per_hit(200)


class TestServiceMetrics:
    def test_service_metrics_flow_through_registry(self):
        from repro.obs.tracer import tracing

        with tracing() as tracer:
            svc = CampaignService(
                workers=2, quotas=[TenantQuota("a", max_concurrent=1)])
            svc.run_batch([
                _spec(tenant="a", name="one", n_steps=2),
                _spec(tenant="a", name="two", n_steps=3),
                _spec(tenant="b", name="sharded", n_steps=2, n_buckets=4,
                      n_shards=2),
            ])
        snap = tracer.metrics.snapshot()
        waits = snap["histograms"]["service.queue_wait_s"]
        assert waits["count"] == 3
        assert waits["max"] > 0.0
        assert snap["gauges"]["service.cache_hit_rate"]["last"] == 0.0
        assert snap["gauges"]["service.shard.0.tasks"]["last"] > 0
        assert snap["gauges"]["service.shard.1.tasks"]["last"] > 0
        assert snap["counters"]["service.cache_misses"] == 3.0

    def test_perf_record_captures_service_metrics(self):
        from repro.obs.perf import collect_run_record

        rec = collect_run_record(ReplayPlan(n_steps=2, n_buckets=3))
        assert rec.metrics["service.jobs_done"] == 4.0
        assert rec.metrics["service.cache_hit_rate"] == 0.5
        assert rec.metrics["service.held_events"] >= 1.0
        assert rec.metrics["service.queue_wait_max_s"] > 0.0
        assert any(k.startswith("service.shard.") for k in rec.metrics)

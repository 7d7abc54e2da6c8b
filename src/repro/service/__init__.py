"""`repro.service` — schedule-as-a-service in front of the campaign runner.

The paper's hybrid in-situ/in-transit design serves exactly one campaign
in one process. This package turns the reproduction into a multi-tenant
campaign service:

* :mod:`repro.service.queue` — job specs and the per-tenant fair-share
  job queue;
* :mod:`repro.service.quota` — per-tenant resource quotas (concurrent
  jobs, staging-bytes budget, core allocation) with admission control;
* :mod:`repro.service.workers` — the DES worker pool draining the queue;
* :mod:`repro.service.shards` — sharded DataSpaces: N independent
  tuple-space shards with :class:`~repro.staging.hashing.ServiceRing`
  DHT routing of region keys;
* :mod:`repro.service.cache` — the memoized schedule/cost-model cache
  keyed by (machine fingerprint, workload spec, placement), persisted
  through the RunStore contract;
* :mod:`repro.service.api` — :class:`~repro.service.api.CampaignService`
  tying the layers together, plus per-tenant reporting.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "CampaignService": "api",
    "Job": "queue",
    "JobQueue": "queue",
    "JobSpec": "queue",
    "JobState": "queue",
    "QuotaManager": "quota",
    "ScheduleCache": "cache",
    "ServiceReport": "api",
    "ShardBalanceReport": "shards",
    "ShardedDataSpaces": "shards",
    "TenantQuota": "quota",
    "TenantReport": "api",
    "WorkerPool": "workers",
    "schedule_cache_key": "cache",
})

"""DataSpaces-like scheduling and coordination layer (paper §IV).

Components mirror Fig. 5 of the paper:

* :class:`~repro.staging.dataspaces.DataSpaces` — the shared-space service:
  versioned put/get keyed by (name, version), DHT-hashed over service
  cores, plus the in-transit task queue and free-bucket list (with
  ``n_shards > 1``, N shards whose spread ``ShardBalanceReport`` reports);
* :class:`~repro.staging.descriptors.TaskDescriptor` — an in-transit task:
  which data regions to pull and what computation to run on them;
* :class:`~repro.staging.scheduler.TaskScheduler` — matches *data-ready*
  tasks to *bucket-ready* staging cores first-come first-served;
* :class:`~repro.staging.buckets.StagingBucket` — a DES process on one
  staging core: announce readiness, receive a task, asynchronously pull the
  data via DART, execute the in-transit stage, repeat.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "ServiceRing": "hashing",
    "SHUTDOWN_TASK_ID": "descriptors",
    "TaskDescriptor": "descriptors",
    "TaskResult": "descriptors",
    "AssignmentRecord": "scheduler",
    "ReassignmentRecord": "scheduler",
    "TaskScheduler": "scheduler",
    "StagingBucket": "buckets",
    "DataSpaces": "dataspaces",
    "ShardBalanceReport": "dataspaces",
    "ShardLoad": "dataspaces",
})

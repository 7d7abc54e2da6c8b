"""Replay-record digests: every record a staging replay leaves, pinned.

One SHA-256 per plan over the ``repr`` of the assignment records, the
transfer records, the task results, the per-core RPC counts, the
scheduler's queue trace and the failed-task count. The DES, staging and
transport hot paths may change how they do their work, never what they
record: a reordered dispatch, a lost wake or a dropped record moves a
digest. The literals hold under both kernel backends (the replay calls
no kernel). A digest that moves is a behaviour change and must be
explained, not re-recorded.
"""

import hashlib

import numpy as np
import pytest

from repro.core.runner import ExperimentConfig, ScaledExperiment
from repro.des import Engine
from repro.staging.dataspaces import DataSpaces
from repro.transport.dart import DartTransport

#: The faulted plan: pull failures and stalls, leases, and two crashes
#: each answered by a restart.
FAULTED = dict(n_steps=12, n_buckets=4, lease_timeout=5.0,
               bucket_restart_delay=1.5, max_bucket_restarts=2,
               crash_times=(30.0, 55.0), pull_failure_rate=0.2,
               pull_stall_rate=0.1, pull_stall_seconds=2.0, fault_seed=3)

PLANS = {
    "wide": ("paper_4896", dict(n_steps=60)),
    "starved": ("paper_9440", dict(n_steps=40, n_buckets=8)),
    "faulted": ("paper_4896", FAULTED),
    "sharded": ("paper_4896", dict(n_steps=20, n_buckets=6, n_shards=2)),
}

DIGESTS = {
    "wide": "83faba1bb577dc253816ae5c7435742fbcdf2896b4e0a59053d21e0d5cfb79f4",
    "starved": "969279b580a73f0b0a1ec647f9e892466c0517bd831bc87660c240f269e30729",
    "faulted": "01ff74bb3371053e9f3e3f4ab0914ede0a91143a097a281cd76fd9fa229a3170",
    "sharded": "02abc22a4451108aac2b15ef8b4af07fcd7ab8c02449ad998622815d7ef1b7cb",
}


@pytest.fixture
def spaces(monkeypatch):
    """Every :class:`DataSpaces` built while the test runs (a sharded
    replay builds one per shard), in construction order."""
    made = []
    init = DataSpaces.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(DataSpaces, "__init__", recording)
    return made


def replay(plan, spaces):
    config, fields = PLANS[plan]
    result = ScaledExperiment(
        getattr(ExperimentConfig, config)()).run_schedule(**fields)
    records = [result.assignments, result.results, result.failed_tasks]
    for ds in spaces:
        records += [ds.transport.transfers, ds.server_rpc_counts,
                    ds.scheduler.queue_trace]
    return result, hashlib.sha256(repr(records).encode()).hexdigest()


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_replay_records_are_pinned(plan, spaces):
    result, digest = replay(plan, spaces)
    assert result.results
    assert digest == DIGESTS[plan]


def test_faulted_plan_exercises_every_fault(spaces):
    """The faulted digest covers what its name says."""
    result, _digest = replay("faulted", spaces)
    kinds = [fault.kind for fault in result.faults.injected]
    assert {"crash", "pull_failure", "pull_stall"} <= set(kinds)
    assert result.failed_tasks > 0
    (ds,) = spaces
    assert ds.restarts_used == 2
    assert ds.scheduler.reassignments


def test_rpc_counts_fold_equals_the_ring_histogram():
    """``server_rpc_counts`` read mid-run, again, and at the end is the
    ring's histogram of every RPC key sent so far."""
    engine = Engine()
    ds = DataSpaces(engine, DartTransport(engine), n_servers=7)
    ds.spawn_buckets(["b0", "b1"])
    keys: list[str] = []
    reads: list[tuple[list[int], list[str]]] = []

    def send_rpcs(step: int) -> None:
        ds.put("field", step, np.zeros(3))
        ds.put("field", step, np.ones(3))
        keys.extend([f"field@{step}"] * 2)
        desc = ds.transport.register(f"sim-{step}", None, nbytes=4096)
        keys.append(ds.submit_grouped_result("STATS", step, [desc]).task_id)

    def read() -> None:
        reads.append((list(ds.server_rpc_counts), list(keys)))

    for step in range(12):
        engine.call_at(0.5 * step, lambda step=step: send_rpcs(step))
        if step % 4 == 3:
            engine.call_at(0.5 * step, read)
            engine.call_at(0.5 * step, read)
    engine.call_at(0.5 * step, ds.shutdown_buckets)
    engine.run()
    read()
    assert len(reads) == 7 and len(reads[-1][1]) == 36
    for counts, sent in reads:
        assert counts == ds.ring.load_histogram(sent)

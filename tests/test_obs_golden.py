"""Golden digests of every observability view of two seeded runs.

The digests were recorded at the commit *before* the observers were
rebuilt on the shared event log, so they pin the views' content — bus
JSONL, ledger JSONL, Chrome trace events, blame, capacity report — to
what the per-emit mechanisms produced. The trace JSONL and metrics
snapshot digests were recorded before the observers' record-once fast
path, so they pin the span/instant/flow records and every instrument's
end state through that change. Everything hashed is stamped from the
DES clock only; no wall-clock field enters a digest (the JSONL's
``wall_*`` fields are dropped before hashing).
"""

import hashlib
import json

from repro.core.runner import ExperimentConfig, ScaledExperiment
from repro.obs.blame import blame
from repro.obs.capacity import CapacityLedger
from repro.obs.export import to_chrome_trace, to_jsonl_lines
from repro.obs.live import KIND_CAPACITY, TelemetryBus, event_to_json
from repro.obs.tracer import tracing
from repro.service import CampaignService, JobSpec

GOLDEN_REPLAY = {
    "bus_jsonl":
        "48813cc895c98b8202b7c0b4fc7c8018557cf97c5e9d82680aab6f17bc620f65",
    "ledger_jsonl":
        "24334e6716276f462c3acb26ca2f6c2ba2a97d0ba21667a9c8cee70c8b831830",
    "ledger_entries":
        "4fe1801c6331c4ae837dab063eb4ce8a4404d51173e240897c08696f4c533033",
    "trace_events":
        "4bd5b8f43919bfbcc0f727b4a6406d17ccbf12d3d3c82c2601e87e29cc243d0d",
    "blame":
        "0c3a190510daaa7a4db3543e465d001de7ebceb8d74cfd55daa399dcd3245c45",
    "trace_jsonl":
        "ffc50f65df3782b2dea85c0c4024ec880168a6ce0109e5e033cfa8c8b65c1fe3",
    "metrics":
        "b2f6a997912a10f15fcf93c8861d8ae5f4be7c9d1a5b4a213141cb587758a40f",
    "capacity":
        "3401eb11ba600394d8e9f8875aee31b27943a43eb96e2d85b072e593a8610711",
}

GOLDEN_SERVICE = {
    "bus_jsonl":
        "49e50109ffb657b4508c6b19aa57fef53c833cfb51c9b2c9bfc15762c69930ba",
    "ledger_jsonl":
        "06470335c251ddef9cf8c46b14252a2d2279cb881432d46ba508e14bcc9389be",
    "trace_events":
        "5a30b1f66da273f45582efb7c5dfd9b92c801ec6cc94369db5d27891c0a2a5a9",
    "blame":
        "391950a252c856a6466a6f36684f9150c6ac6e493841f13019c93738971f18aa",
    "trace_jsonl":
        "8eaf4a88e1ca1d58ac6ef0c22e90aae3db9d26d4b0b588d7eca69c1a3673eea1",
    "metrics":
        "265f6ac032249d93844c49e9c4326781242b0f6047bca2f49578c7ecc6986627",
    "capacity":
        "74f310ad1c6477ef4b570eedc4b9945e7dcce2511fabaf1b3620c0f755448b74",
}


def _sha(payload) -> str:
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _trace_jsonl_without_wall(trace) -> str:
    """The trace JSONL with every wall-clock field dropped."""
    return "\n".join(
        json.dumps({k: v for k, v in json.loads(line).items()
                    if not k.startswith("wall_")})
        for line in to_jsonl_lines(trace))


def _view_digests(tracer, events) -> dict[str, str]:
    lines = [event_to_json(e) for e in events]
    capacity_lines = [line for e, line in zip(events, lines)
                      if e.kind == KIND_CAPACITY]
    doc = to_chrome_trace(tracer.trace, tracer.metrics)
    return {
        "bus_jsonl": _sha("\n".join(lines)),
        "ledger_jsonl": _sha("\n".join(capacity_lines)),
        "trace_events": _sha(doc["traceEvents"]),
        "blame": _sha(blame(tracer.trace).to_dict()),
        "trace_jsonl": _sha(_trace_jsonl_without_wall(tracer.trace)),
        "metrics": _sha(tracer.metrics.snapshot()),
    }


def _observed_replay() -> dict[str, str]:
    """The seeded 10-step replay with tracer, bus, probes and ledger on."""
    experiment = ScaledExperiment(ExperimentConfig.paper_4896())
    bus = TelemetryBus()
    sub = bus.subscribe("golden")
    with tracing() as tracer:
        tracer.attach_bus(bus)
        ledger = CapacityLedger()
        result = experiment.run_schedule(
            n_steps=10, n_buckets=8, capacity=ledger,
            probe_interval=0.25 * experiment.simulation_step_time())
    digests = _view_digests(tracer, sub.poll())
    digests["ledger_entries"] = _sha(
        [e.to_dict() for e in ledger.entries]
        + [t.to_dict() for t in ledger.transfers])
    digests["capacity"] = _sha(result.capacity.to_dict(series_cap=None))
    return digests


def _service_campaign() -> dict[str, str]:
    """One faulted and one sharded job through the campaign service:
    tenant/job context crosses the two-level DES into every view."""
    specs = [
        JobSpec(tenant="alpha", name="sharded", n_steps=4, n_buckets=4,
                n_shards=2),
        JobSpec(tenant="beta", name="faulted", n_steps=4, n_buckets=4,
                lease_timeout=5.0, fault_seed=3, crash_times=(60.0,),
                bucket_restart_delay=2.0, max_bucket_restarts=2,
                pull_failure_rate=0.2, pull_stall_rate=0.5,
                pull_stall_seconds=40.0),
    ]
    bus = TelemetryBus()
    sub = bus.subscribe("golden")
    with tracing() as tracer:
        service = CampaignService(workers=2, bus=bus, probe_interval=5.0)
        report = service.run_batch(specs)
    assert report.all_done
    digests = _view_digests(tracer, sub.poll())
    digests["capacity"] = _sha(
        {job.job_id: job.result.capacity.to_dict(series_cap=None)
         for job in report.jobs})
    return digests


def test_observed_replay_views_match_the_recorded_digests():
    assert _observed_replay() == GOLDEN_REPLAY


def test_service_campaign_views_match_the_recorded_digests():
    assert _service_campaign() == GOLDEN_SERVICE

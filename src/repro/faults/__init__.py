"""Deterministic fault injection and resilience experiments.

The paper's case for in-transit staging (§IV) assumes staging nodes and
RDMA transfers can misbehave without taking the simulation down. This
package exercises that assumption:

* :class:`~repro.faults.injector.FaultConfig` /
  :class:`~repro.faults.injector.FaultInjector` — a seeded injector that
  schedules staging-bucket crashes against the DES clock and arms the
  transport's pull fault hook with probabilistic RDMA failures and
  transfer stalls. Same seed + same workload ⇒ identical fault sequence.
* :func:`~repro.faults.experiment.run_resilience_experiment` — a synthetic
  staging workload driven under injected faults, reporting completion
  time, the exact task ledger, retries, lease reassignments, restarts and
  degraded-mode activity; :func:`~repro.faults.experiment.run_fault_sweep`
  runs it over six fault scenarios (``python -m repro check faults``).

Recovery machinery lives with the components it protects: cancellable
timeouts and ``Engine.any_of`` in :mod:`repro.des`, pull backoff in
:mod:`repro.transport.dart`, per-assignment leases in
:mod:`repro.staging.scheduler`, and the bucket supervisor plus degraded
in-situ fallback in :mod:`repro.staging.dataspaces`.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "FaultConfig": "injector",
    "FaultInjector": "injector",
    "ResilienceReport": "experiment",
    "run_fault_sweep": "experiment",
    "run_resilience_experiment": "experiment",
    "sweep_table": "experiment",
})

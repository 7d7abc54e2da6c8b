"""Resilience experiment: a staging workload under injected faults.

Drives a synthetic in-transit workload (one grouped task per analysis
step, real NumPy payloads with full-scale wire sizes) through the complete
recovery stack and reports what happened: completion time, the exact task
ledger (completed + failed == submitted), retries, lease reassignments,
supervisor restarts and degraded-mode activity. :func:`run_fault_sweep`
is the six-scenario sweep ``python -m repro check faults`` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.des import Engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.staging.dataspaces import DataSpaces
from repro.transport.dart import DartTransport
from repro.util import TextTable


@dataclass
class ResilienceReport:
    """Outcome of one resilience run."""

    config: FaultConfig
    n_tasks: int
    n_buckets: int
    makespan: float
    accounting: dict[str, int]
    #: Failed attempts that were requeued (retry path).
    retries: int
    #: Tasks pulled back from dead buckets by lease expiry.
    reassignments: int
    #: Crash→requeue latency per reassignment (one lease period + epsilon).
    recovery_delays: list[float] = field(default_factory=list)
    restarts: int = 0
    degraded: bool = False
    fallback_tasks: int = 0
    crashes_injected: int = 0
    pull_failures_injected: int = 0
    pull_stalls_injected: int = 0
    #: Every completed task produced the analytically expected value.
    values_ok: bool = True

    @property
    def drained(self) -> bool:
        return self.accounting["outstanding"] == 0

    @property
    def all_accounted(self) -> bool:
        acct = self.accounting
        return (acct["completed"] + acct["failed"] == acct["submitted"]
                and acct["outstanding"] == 0)

    @property
    def verified(self) -> bool:
        """Every task accounted for and every completed value right."""
        return self.all_accounted and self.values_ok

    @property
    def mttr(self) -> float:
        """Mean time to recovery: crash-to-requeue latency averaged over
        the lease reassignments (0.0 when nothing needed recovering)."""
        if not self.recovery_delays:
            return 0.0
        return sum(self.recovery_delays) / len(self.recovery_delays)

    def to_metrics(self) -> dict[str, float]:
        """The report reduced to the canonical run-record metric schema
        (see :mod:`repro.obs.perf`): every figure the regression gate and
        the dashboard's fault-recovery panel track across runs."""
        return {
            "faults.makespan_s": self.makespan,
            "faults.mttr_s": self.mttr,
            "faults.reassignments": float(self.reassignments),
            "faults.retries": float(self.retries),
            "faults.restarts": float(self.restarts),
            "faults.fallback_tasks": float(self.fallback_tasks),
            "faults.crashes": float(self.crashes_injected),
            "faults.terminal_failures": float(self.accounting["failed"]),
        }


def run_resilience_experiment(config: FaultConfig | None = None,
                              n_tasks: int = 32,
                              n_buckets: int = 4,
                              regions_per_task: int = 4,
                              region_nbytes: int = 4 << 20,
                              submit_interval: float = 2.0e-3,
                              max_retries: int = 3,
                              lease_timeout: float = 5.0e-3,
                              pull_max_attempts: int = 4,
                              pull_backoff_base: float | None = None,
                              bucket_restart_delay: float | None = None,
                              max_bucket_restarts: int = 0,
                              ) -> ResilienceReport:
    """Run one fault scenario and return its :class:`ResilienceReport`.

    The workload submits ``n_tasks`` grouped tasks, one every
    ``submit_interval`` simulated seconds; each pulls
    ``regions_per_task`` regions of ``region_nbytes`` wire bytes and sums
    them in-transit, so every completed value is checkable analytically.
    """
    config = config or FaultConfig()
    engine = Engine()
    transport = DartTransport(engine, pull_max_attempts=pull_max_attempts)
    if pull_backoff_base is not None:
        transport.pull_backoff_base = pull_backoff_base
    ds = DataSpaces(engine, transport, n_servers=2,
                    lease_timeout=lease_timeout,
                    bucket_restart_delay=bucket_restart_delay,
                    max_bucket_restarts=max_bucket_restarts)
    ds.spawn_buckets([f"staging-{i}" for i in range(n_buckets)])
    injector = FaultInjector(engine, config).attach(ds)

    expected: dict[str, float] = {}

    def compute(payloads: list[np.ndarray]) -> float:
        return float(sum(p.sum() for p in payloads))

    def driver():
        for i in range(n_tasks):
            payloads = [np.full(64, float(i * regions_per_task + j))
                        for j in range(regions_per_task)]
            descs = [transport.register(f"sim-{j}", payload,
                                        nbytes=region_nbytes,
                                        meta={"analysis": "resilience",
                                              "timestep": i})
                     for j, payload in enumerate(payloads)]
            task = ds.submit_grouped_result(
                "resilience", i, descs, compute=compute,
                max_retries=max_retries)
            expected[task.task_id] = float(sum(p.sum() for p in payloads))
            yield engine.timeout(submit_interval)

    engine.process(driver(), name="driver")
    ds.shutdown_buckets()
    engine.run()

    results = ds.all_results()
    failure_times = [t for b in ds.buckets for (_tid, t, _e) in b.failures]
    makespan = max(
        [r.finish_time for r in results] + failure_times + [0.0])
    terminal = len(ds.failed_task_ids())
    attempts_failed = sum(len(b.failures) for b in ds.buckets)
    values_ok = all(
        r.value == expected[r.task_id]
        for r in results if r.task_id in expected)
    sched = ds.scheduler
    return ResilienceReport(
        config=config,
        n_tasks=n_tasks,
        n_buckets=n_buckets,
        makespan=makespan,
        accounting=ds.task_accounting(),
        retries=attempts_failed - terminal,
        reassignments=len(sched.reassignments),
        recovery_delays=[rec.requeue_time - rec.assign_time
                         for rec in sched.reassignments],
        restarts=ds.restarts_used,
        degraded=ds.degraded,
        fallback_tasks=len(ds.fallback_results),
        crashes_injected=injector.count("crash"),
        pull_failures_injected=injector.count("pull_failure"),
        pull_stalls_injected=injector.count("pull_stall"),
        values_ok=values_ok,
    )


def run_fault_sweep() -> dict[str, ResilienceReport]:
    """One resilience run per scenario, on the default workload: a clean
    baseline, flaky pulls, stalled pulls, rate-driven bucket crashes
    without and with supervisor restarts, and every staging bucket down
    (the degraded in-situ fallback)."""
    n_buckets = 4
    crashes = FaultConfig(crash_rate=100.0, horizon=0.06)
    scenarios: list[tuple[str, FaultConfig, dict]] = [
        ("baseline", FaultConfig(), {}),
        ("flaky pulls", FaultConfig(pull_failure_rate=0.10), {}),
        ("stalls", FaultConfig(pull_stall_rate=0.10,
                               pull_stall_seconds=1.0e-3), {}),
        ("crashes", crashes, {}),
        ("crashes+restart", crashes,
         {"bucket_restart_delay": 2.0e-3,
          "max_bucket_restarts": 2 * n_buckets}),
        ("staging down",
         FaultConfig(crash_times=tuple(1.0e-3 * (i + 1)
                                       for i in range(n_buckets))), {}),
    ]
    return {name: run_resilience_experiment(cfg, n_buckets=n_buckets, **extra)
            for name, cfg, extra in scenarios}


def sweep_table(reports: dict[str, ResilienceReport]) -> str:
    """One row per scenario of :func:`run_fault_sweep`."""
    table = TextTable(["scenario", "crashes", "pull faults", "retries",
                       "reassigned", "restarts", "fallback", "failed",
                       "makespan (s)", "accounted"])
    for name, r in reports.items():
        table.add_row([name, r.crashes_injected,
                       r.pull_failures_injected + r.pull_stalls_injected,
                       r.retries, r.reassignments, r.restarts,
                       r.fallback_tasks, r.accounting["failed"],
                       f"{r.makespan:.4f}", "yes" if r.verified else "NO"])
    return table.render()

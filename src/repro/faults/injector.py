"""Seeded, deterministic fault injection against the DES clock.

The injector perturbs a staging workflow in three ways, mirroring the
failure classes a real staging deployment sees:

* **bucket crashes** — a staging core's worker process is interrupted at a
  scheduled simulated time (explicit ``crash_times`` and/or a Poisson
  process at ``crash_rate`` over ``horizon``); recovery is lease-based
  reassignment, supervisor restarts, or the degraded in-situ fallback;
* **pull failures** — an RDMA Get attempt raises
  :class:`~repro.transport.dart.PullFault` with probability
  ``pull_failure_rate``; the transport retries with exponential backoff;
* **transfer stalls** — an attempt is slowed by ``pull_stall_seconds``
  with probability ``pull_stall_rate`` (the wire occupies both NICs for
  the extra time).

Determinism: all randomness flows from one
:func:`repro.util.rng.seeded_rng` generator, and the DES engine dispatches
ties in insertion order, so a given (seed, workload) pair replays the
identical fault sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.des import Engine
from repro.obs.tracer import get_tracer
from repro.staging.dataspaces import DataSpaces
from repro.transport.dart import PullFault
from repro.transport.messages import DataDescriptor
from repro.util.rng import seeded_rng


@dataclass(frozen=True)
class FaultConfig:
    """What to inject, and when. All rates default to "no faults"."""

    seed: int = 0
    #: Explicit bucket-crash times (simulated seconds).
    crash_times: tuple[float, ...] = ()
    #: Expected crashes per simulated second (Poisson), sampled over
    #: ``horizon``; 0 disables rate-driven crashes.
    crash_rate: float = 0.0
    #: Sampling horizon (simulated seconds) for ``crash_rate``.
    horizon: float = 0.0
    #: Probability that one pull attempt raises :class:`PullFault`.
    pull_failure_rate: float = 0.0
    #: Probability that one pull attempt stalls.
    pull_stall_rate: float = 0.0
    #: Extra wire seconds charged to a stalled attempt.
    pull_stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.pull_failure_rate <= 1.0:
            raise ValueError(
                f"pull_failure_rate must be in [0, 1], got {self.pull_failure_rate}")
        if not 0.0 <= self.pull_stall_rate <= 1.0:
            raise ValueError(
                f"pull_stall_rate must be in [0, 1], got {self.pull_stall_rate}")
        if self.pull_stall_seconds < 0:
            raise ValueError("pull_stall_seconds must be >= 0")
        if self.crash_rate < 0:
            raise ValueError("crash_rate must be >= 0")
        if self.crash_rate > 0 and self.horizon <= 0:
            raise ValueError("crash_rate > 0 needs a positive horizon")
        if any(t < 0 for t in self.crash_times):
            raise ValueError("crash_times must be >= 0")

    @property
    def injects_crashes(self) -> bool:
        return bool(self.crash_times) or self.crash_rate > 0

    @property
    def injects_pull_faults(self) -> bool:
        return self.pull_failure_rate > 0 or self.pull_stall_rate > 0


@dataclass
class InjectedFault:
    """One fault the injector actually delivered."""

    kind: str  # "crash" | "pull_failure" | "pull_stall"
    time: float
    target: str
    detail: dict[str, Any] = field(default_factory=dict)


class FaultInjector:
    """Arms a :class:`DataSpaces` workflow with a deterministic fault plan."""

    def __init__(self, engine: Engine, config: FaultConfig) -> None:
        self.engine = engine
        self.config = config
        self.rng = seeded_rng(config.seed)
        #: Every fault delivered, in delivery order.
        self.injected: list[InjectedFault] = []
        self._attached = False
        self._tracer = get_tracer()

    # -- wiring ---------------------------------------------------------------

    def attach(self, dataspaces: DataSpaces) -> "FaultInjector":
        """Install hooks and schedule the crash plan.

        Call after ``spawn_buckets`` and before ``engine.run``. Requires
        scheduler leases when crashes are injected — without leases a task
        held by a crashed bucket would be lost and ``drained()`` could
        never fire.
        """
        if self._attached:
            raise RuntimeError("injector already attached")
        cfg = self.config
        if (cfg.injects_crashes
                and dataspaces.scheduler.lease_timeout is None):
            raise ValueError(
                "crash injection requires DataSpaces(lease_timeout=...): "
                "without leases an in-flight task on a crashed bucket is "
                "unrecoverable")
        self._attached = True
        if cfg.injects_pull_faults:
            for transport in dataspaces.transports:
                transport.pull_fault_hook = self._pull_hook
        # Only the pending crash callbacks hold the space: the injector
        # itself does not, so the transport's hook back to the injector
        # closes no reference cycle once the last crash has fired.
        for when in sorted(self._plan_crash_times()):
            self.engine.call_at(
                max(when, self.engine.now),
                lambda when=when: self._crash_one(dataspaces, when))
        return self

    def _plan_crash_times(self) -> list[float]:
        times = list(self.config.crash_times)
        if self.config.crash_rate > 0:
            t = 0.0
            while True:
                t += float(self.rng.exponential(1.0 / self.config.crash_rate))
                if t >= self.config.horizon:
                    break
                times.append(t)
        return times

    # -- delivery -------------------------------------------------------------

    def _crash_one(self, ds: DataSpaces, when: float) -> None:
        alive = [b for shard in ds.shards for b in shard.buckets
                 if not b.dead]
        if not alive:
            return  # staging already fully down
        victim = alive[int(self.rng.integers(len(alive)))]
        self.injected.append(InjectedFault("crash", self.engine.now,
                                           victim.name))
        self._tracer.counter("faults.bucket_crashes")
        self._tracer.instant("faults.crash", lane="faults",
                             bucket=victim.name)
        ds.crash_bucket(victim.name, cause=f"injected crash @ {when:.6f}s")

    def _pull_hook(self, descriptor: DataDescriptor, dest_node: str,
                   attempt: int) -> float:
        cfg = self.config
        if cfg.pull_failure_rate and self.rng.random() < cfg.pull_failure_rate:
            self.injected.append(InjectedFault(
                "pull_failure", self.engine.now, dest_node,
                {"region": descriptor.region_id, "attempt": attempt}))
            self._tracer.counter("faults.pull_failures")
            raise PullFault(
                f"injected pull failure of {descriptor.region_id!r} "
                f"into {dest_node!r} (attempt {attempt})")
        if cfg.pull_stall_rate and self.rng.random() < cfg.pull_stall_rate:
            self.injected.append(InjectedFault(
                "pull_stall", self.engine.now, dest_node,
                {"region": descriptor.region_id,
                 "stall": cfg.pull_stall_seconds}))
            self._tracer.counter("faults.pull_stalls")
            return cfg.pull_stall_seconds
        return 0.0

    # -- introspection --------------------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for f in self.injected if f.kind == kind)

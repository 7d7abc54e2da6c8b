"""Per-tenant resource quotas with admission control.

"Towards In-transit Analysis on Supercomputing Environments" frames
in-transit staging as a shared service with admission control; this
module supplies it. A :class:`TenantQuota` bounds three resources:

* ``max_concurrent`` — jobs a tenant may have running at once;
* ``staging_bytes`` — total bytes of staging memory the tenant's running
  jobs may pin (demand estimated with
  :meth:`~repro.core.runner.ScaledExperiment.staging_memory_needed`);
* ``max_cores`` — total machine cores the tenant's running jobs may hold.

:class:`QuotaManager` answers admission checks with a :class:`Denial`
(or None to admit). A denial is *transient* when the tenant is merely
over quota right now — the job stays queued and fair-share scheduling
holds it until a running job releases resources — and *permanent* when
the job alone exceeds the tenant's absolute budget (it could never run,
and holding it would deadlock the drain).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class JobDemand:
    """Resources one job pins while running."""

    staging_bytes: int = 0
    cores: int = 0


@dataclass(frozen=True)
class Denial:
    """An admission refusal; ``permanent`` means never admissible."""

    reason: str
    permanent: bool = False


@dataclass(frozen=True)
class TenantQuota:
    """Resource budget for one tenant (``"*"`` = the default tenant)."""

    tenant: str
    max_concurrent: int = 2
    staging_bytes: int | None = None
    max_cores: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        for name in ("max_concurrent", "staging_bytes", "max_cores"):
            value = getattr(self, name)
            if value is not None and not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}")
        if self.staging_bytes is not None and self.staging_bytes <= 0:
            raise ValueError(
                f"staging_bytes must be > 0, got {self.staging_bytes}")
        if self.max_cores is not None and self.max_cores <= 0:
            raise ValueError(f"max_cores must be > 0, got {self.max_cores}")

    def to_dict(self) -> dict:
        return {"tenant": self.tenant, "max_concurrent": self.max_concurrent,
                "staging_bytes": self.staging_bytes,
                "max_cores": self.max_cores}


@dataclass
class TenantUsage:
    """Resources a tenant's running jobs currently pin."""

    running: int = 0
    staging_bytes: int = 0
    cores: int = 0


@dataclass(frozen=True)
class TrueUp:
    """One completed job's estimated-vs-measured staging reconciliation.

    ``delta_bytes`` is measured minus estimated: negative means the
    analytic admission estimate over-charged the tenant (the common,
    safe case); positive means the job actually pinned more staging
    memory than admission accounted for.
    """

    tenant: str
    job_id: str
    estimated_bytes: int
    measured_bytes: int

    @property
    def delta_bytes(self) -> int:
        return self.measured_bytes - self.estimated_bytes


class QuotaManager:
    """Admission control + usage ledger over per-tenant quotas."""

    def __init__(self, quotas: list[TenantQuota] | None = None,
                 default: TenantQuota | None = None) -> None:
        self.quotas: dict[str, TenantQuota] = {}
        for q in quotas or []:
            if q.tenant == "*":
                default = q
            else:
                self.quotas[q.tenant] = q
        self.default = default or TenantQuota("*", max_concurrent=2)
        self._usage: defaultdict[str, TenantUsage] = defaultdict(TenantUsage)
        #: Completed jobs' estimated-vs-measured reconciliations,
        #: appended by :meth:`true_up` in completion order.
        self.true_ups: list[TrueUp] = []

    # -- admission -----------------------------------------------------------

    def check(self, tenant: str, demand: JobDemand) -> Denial | None:
        """None to admit ``demand`` for ``tenant`` now, else a Denial."""
        return self._check(self.quotas.get(tenant, self.default),
                           self._usage[tenant], demand)

    @staticmethod
    def _check(quota: TenantQuota, usage: TenantUsage,
               demand: JobDemand) -> Denial | None:
        # Absolute-budget violations first: these can never clear.
        if (quota.staging_bytes is not None
                and demand.staging_bytes > quota.staging_bytes):
            return Denial(
                f"job needs {demand.staging_bytes} staging bytes, over the "
                f"tenant budget of {quota.staging_bytes}", permanent=True)
        if quota.max_cores is not None and demand.cores > quota.max_cores:
            return Denial(
                f"job needs {demand.cores} cores, over the tenant budget "
                f"of {quota.max_cores}", permanent=True)
        if usage.running + 1 > quota.max_concurrent:
            return Denial(
                f"{usage.running}/{quota.max_concurrent} concurrent jobs "
                f"in use")
        if (quota.staging_bytes is not None
                and usage.staging_bytes + demand.staging_bytes
                > quota.staging_bytes):
            return Denial(
                f"staging budget exhausted "
                f"({usage.staging_bytes}/{quota.staging_bytes} bytes in use, "
                f"job needs {demand.staging_bytes})")
        if (quota.max_cores is not None
                and usage.cores + demand.cores > quota.max_cores):
            return Denial(
                f"core budget exhausted ({usage.cores}/{quota.max_cores} "
                f"in use, job needs {demand.cores})")
        return None

    # -- ledger --------------------------------------------------------------

    def acquire(self, tenant: str, demand: JobDemand) -> None:
        usage = self._usage[tenant]
        usage.running += 1
        usage.staging_bytes += demand.staging_bytes
        usage.cores += demand.cores

    def release(self, tenant: str, demand: JobDemand) -> None:
        usage = self._usage[tenant]
        if usage.running < 1:
            raise RuntimeError(
                f"release without acquire for tenant {tenant!r}")
        usage.running -= 1
        usage.staging_bytes -= demand.staging_bytes
        usage.cores -= demand.cores

    # -- reconciliation ------------------------------------------------------

    def true_up(self, tenant: str, job_id: str, estimated_bytes: int,
                measured_bytes: int) -> TrueUp:
        """Reconcile a completed job's admission estimate against the
        capacity ledger's measured peak.

        Admission charged ``estimated_bytes`` (the analytic
        ``staging_memory_needed`` bound) for the job's whole runtime and
        :meth:`release` returns exactly that, so the running usage books
        stay balanced; the true-up records how far the estimate was from
        the ledger-measured truth, per tenant, for reporting and for
        tightening future admission estimates.
        """
        rec = TrueUp(tenant=tenant, job_id=job_id,
                     estimated_bytes=int(estimated_bytes),
                     measured_bytes=int(measured_bytes))
        self.true_ups.append(rec)
        return rec

    def true_up_summary(self, tenant: str) -> dict:
        """Summed estimated/measured/delta bytes over a tenant's
        completed (trued-up) jobs."""
        recs = [r for r in self.true_ups if r.tenant == tenant]
        return {"jobs": len(recs),
                "estimated_bytes": sum(r.estimated_bytes for r in recs),
                "measured_bytes": sum(r.measured_bytes for r in recs),
                "delta_bytes": sum(r.delta_bytes for r in recs)}

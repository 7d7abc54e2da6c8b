"""Live probes: periodic DES-clock sampling of live state plus SLO rules.

A :class:`ProbeSampler` attaches to a :class:`~repro.des.engine.Engine`
(``engine.attach_probe``) and is driven by the event loop itself: every
time the simulated clock advances, the sampler back-fills one sample per
elapsed ``interval`` boundary for each registered probe (a zero-argument
callable reading live state — scheduler queue depth, NIC occupancy,
bucket utilisation, RDMA-registered bytes). Because DES state only
changes at events, sampling at dispatch granularity reproduces exactly
what a real periodic sampler would have seen, without keeping the event
heap alive or perturbing the schedule.

Each tick appends one :class:`~repro.obs.events.SampleRow` — every
probe's value at that instant — to the run's event log and does nothing
else. The per-probe :attr:`ProbeSampler.series`, the ``probe.<name>``
gauges behind the Chrome counter track, and the ``kind=probe`` bus
events are all folds over those rows, computed when read.

Each sampler judges its SLO objectives with one silent
:class:`~repro.obs.live.BurnRateMonitor` (no bus, no tracer): a rule is
an :class:`~repro.obs.live.SloObjective` with zero-length windows, so it
pages on the first bad observation and re-arms on the first good one. A
probe whose name is an objective's metric is observed at every sample
instant (e.g. *scheduler backlog stays within 4x the bucket count*);
:func:`insitu_share` of the finished trace's stage totals is observed
once (the paper's headline budget: *in-situ work takes <= 5% of the
timestep*). Each :class:`~repro.obs.live.Alert` the monitor returns also
emits an ``slo.breach`` instant into the trace (visible in Perfetto); a
sustained violation is one alert, not one per sample.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any

from repro.obs.events import SampleRow
from repro.obs.live import Alert, BurnRateMonitor, SloObjective
from repro.obs.tracer import NullTracer, Tracer, get_tracer

__all__ = [
    "ProbeSampler",
    "default_slos",
    "insitu_share",
]


def insitu_share(totals: dict[str, float]) -> float:
    """In-situ seconds over the timestep's (simulation + in-situ) seconds
    in a trace's ``stage -> total seconds`` map; 0 for an empty one."""
    insitu = totals.get("insitu", 0.0)
    step = insitu + totals.get("simulation", 0.0)
    return insitu / step if step else 0.0


class ProbeSampler:
    """Periodic sampler over live state, driven by the DES clock.

    Attach with ``engine.attach_probe(sampler)`` *before* ``engine.run``.
    Each tick is one :class:`~repro.obs.events.SampleRow` in the tracer's
    event log (a private list under the null tracer), kept on the
    sampler's own row list too, and observes the probes its objectives
    judge; :attr:`series` folds the rows per probe. Call :meth:`finalize`
    once the run has drained to fold them into the tracer's
    ``probe.<name>`` gauges (so they reach the Chrome counter track) and
    observe the trace's :func:`insitu_share`; later calls fold nothing.
    """

    #: Ticks after which sampling stops: bounds the log when an interval
    #: is tiny next to the run.
    max_samples = 100_000

    def __init__(self, interval: float,
                 probes: dict[str, Callable[[], float]],
                 slos: tuple[SloObjective, ...] = (),
                 tracer: Tracer | NullTracer | None = None) -> None:
        if not 0 < interval < math.inf:  # NaN too
            raise ValueError(f"interval must be a finite number > 0, "
                             f"got {interval}")
        self.interval = interval
        self.probes = dict(probes)
        self.tracer = tracer if tracer is not None else get_tracer()
        #: The one judge of this sampler's objectives; it only records.
        self.monitor = BurnRateMonitor(tuple(slos))
        self.alerts: list[Alert] = self.monitor.alerts
        self.n_samples = 0
        self._log: list[Any] = self.tracer.log if self.tracer.enabled else []
        #: This sampler's rows, in tick order: each is also in the log
        #: (one slot per probe), and the folds below read only these.
        self._rows: list[SampleRow] = []
        self._next = 0.0
        #: Probe names: shared by every row, and what marks a row as ours.
        self._names = tuple(self.probes)
        self._fns = tuple(self.probes.values())
        metrics = {obj.metric for obj in self.monitor.objectives}
        self._checks = [(name, i) for i, name in enumerate(self._names)
                        if name in metrics]
        self._finalized = False

    # -- engine hook ---------------------------------------------------------

    def on_advance(self, now: float) -> None:
        """Called by the engine whenever the simulated clock advances."""
        if self._next > now + 1e-12:
            return  # the common call: no interval boundary has elapsed
        log, names, fns = self._log, self._names, self._fns
        n_probes = len(names)
        while self._next <= now + 1e-12 and self.n_samples < self.max_samples:
            t = self._next
            self._next += self.interval
            self.n_samples += 1
            values = []
            for fn in fns:  # a comprehension would be one more frame
                values.append(fn())
            ctx = self.tracer.ctx
            row = SampleRow(t, len(log), names, tuple(values),
                            ctx.get("tenant"), ctx.get("job"))
            self._rows.append(row)
            # One row, one slot per probe: log position stays bus sequence.
            log.extend((row,) * n_probes)
            for name, i in self._checks:
                self._observe(name, t, values[i])

    # -- folds ---------------------------------------------------------------

    @property
    def series(self) -> dict[str, list[tuple[float, float]]]:
        """``name -> [(t, value), ...]`` per probe, folded from this
        sampler's rows."""
        rows = self._rows
        return {name: [(row.t, row.values[i]) for row in rows]
                for i, name in enumerate(self._names)}

    def finalize(self, trace: Any) -> list[Alert]:
        """Fold the rows into the ``probe.<name>`` gauges and observe the
        finished trace's :func:`insitu_share` at its last span's end.

        A tick only appends its row; here, once, each gauge is extended
        by its samples at their own times, on top of whatever an earlier
        sampler of the same tracer left in it. Idempotent: a second call
        folds nothing and returns the alerts already raised.
        """
        if self._finalized:
            return self.alerts
        self._finalized = True
        rows = self._rows
        if rows:
            metrics = self.tracer.metrics
            times = [row.t for row in rows]
            for i, name in enumerate(self._names):
                metrics.gauge("probe." + name).extend(
                    [row.values[i] for row in rows], times)
        end = max([s.t_end for s in trace.closed_spans()], default=0.0)
        self._observe("insitu_share", end, insitu_share(trace.stage_totals()))
        return self.alerts

    def _observe(self, metric: str, t: float, value: float) -> None:
        """Observe under the ambient tenant and job; each alert that fires
        becomes an ``slo.breach`` instant."""
        ctx = self.tracer.ctx
        for alert in self.monitor.observe(ctx.get("tenant") or "-", metric,
                                          t, value, ctx.get("job")):
            if self.tracer.enabled:
                self.tracer.instant("slo.breach", lane="slo",
                                    rule=alert.objective, value=alert.value,
                                    threshold=alert.target)


def default_slos(n_buckets: int) -> tuple[SloObjective, ...]:
    """The default objectives for a staging replay: bounded scheduler
    backlog (a queue deeper than 4x the bucket pool means staging has
    stopped absorbing the arrival rate) plus the paper's in-situ budget.
    Each is a threshold: zero-length windows, budget and burns of 1."""
    threshold = dict(budget=1.0, fast_window=0.0, slow_window=0.0,
                     fast_burn=1.0, slow_burn=1.0)
    return (
        SloObjective(
            name="queue-backlog", metric="sched.queue_depth",
            target=4.0 * n_buckets, **threshold,
            description=f"scheduler backlog stays within 4x the "
                        f"{n_buckets}-bucket pool"),
        SloObjective(
            name="insitu-share", metric="insitu_share", target=0.05,
            **threshold,
            description="in-situ share of the timestep stays within 5% "
                        "(the paper's budget)"),
    )

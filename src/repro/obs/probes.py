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

An :class:`SloRule` rides on the sampler with one of two value sources:

* a probe's value at every sample instant (e.g. *scheduler backlog stays
  under 4x the bucket count*);
* a reducer of the finished trace's stage totals, judged once (e.g. the
  paper's headline budget: *in-situ work takes < 5% of the timestep*).

A rule breach emits an ``slo.breach`` instant into the trace (visible in
Perfetto) and an :class:`SloAlert` record; re-breaching only alerts again
after the rule has recovered, so a sustained violation is one alert, not
one per sample.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.obs.events import SampleRow
from repro.obs.tracer import NullTracer, Tracer, get_tracer

__all__ = [
    "SloAlert",
    "SloRule",
    "ProbeSampler",
    "default_slos",
    "insitu_share_slo",
]

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class SloAlert:
    """One rule breach at one instant of the run."""

    rule: str
    t: float
    value: float
    threshold: float
    message: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"rule": self.rule, "t": self.t, "value": self.value,
                "threshold": self.threshold, "message": self.message}


@dataclass(frozen=True)
class SloRule:
    """A requirement on one figure of the run: healthy iff
    ``value op threshold``.

    The figure comes from exactly one source: ``probe`` names a sampled
    probe, judged at every sample instant; ``value_of`` reduces the
    finished trace's ``stage -> total seconds`` map, judged once.
    """

    name: str
    op: str
    threshold: float
    probe: str | None = None
    value_of: Callable[[dict[str, float]], float] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {sorted(_OPS)}, "
                             f"got {self.op!r}")
        if (self.probe is None) == (self.value_of is None):
            raise ValueError("give exactly one of probe= and value_of=")

    def healthy(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> dict[str, Any]:
        sampled = self.probe is not None
        return {"name": self.name,
                "kind": "sampled" if sampled else "summary",
                **({"probe": self.probe} if sampled else {}),
                "op": self.op, "threshold": self.threshold,
                "description": self.description}


def insitu_share_slo(budget: float = 0.05) -> SloRule:
    """The paper's headline budget: in-situ work < 5% of the timestep."""

    def share(totals: dict[str, float]) -> float:
        insitu = totals.get("insitu", 0.0)
        step = insitu + totals.get("simulation", 0.0)
        return insitu / step if step else 0.0

    return SloRule(
        name="insitu-share",
        value_of=share,
        op="<",
        threshold=budget,
        description=f"in-situ share of the timestep stays under "
                    f"{100 * budget:.0f}% (the paper's budget)",
    )


class ProbeSampler:
    """Periodic sampler over live state, driven by the DES clock.

    Attach with ``engine.attach_probe(sampler)`` *before* ``engine.run``.
    Each tick is one :class:`~repro.obs.events.SampleRow` in the tracer's
    event log (a private list under the null tracer), kept on the
    sampler's own row list too, and feeds the sampled SLO rules;
    :attr:`series` folds the rows per probe. Call :meth:`finalize` once
    the run has drained to fold them into the tracer's ``probe.<name>``
    gauges (so they reach the Chrome counter track) and evaluate the
    summary rules; later calls fold nothing.
    """

    #: Ticks after which sampling stops: bounds the log when an interval
    #: is tiny next to the run.
    max_samples = 100_000

    def __init__(self, interval: float,
                 probes: dict[str, Callable[[], float]],
                 slos: tuple[SloRule, ...] = (),
                 tracer: Tracer | NullTracer | None = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.probes = dict(probes)
        self.rules: tuple[SloRule, ...] = tuple(slos)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.alerts: list[SloAlert] = []
        self.n_samples = 0
        self._log: list[Any] = self.tracer.log if self.tracer.enabled else []
        #: This sampler's rows, in tick order: each is also in the log
        #: (one slot per probe), and the folds below read only these.
        self._rows: list[SampleRow] = []
        self._next = 0.0
        self._breached: set[str] = set()
        #: (rule id, instant) pairs already alerted — a sampled rule and
        #: a summary rule sharing a name must not double-fire one window.
        self._alerted: set[tuple[str, float]] = set()
        #: Probe names: shared by every row, and what marks a row as ours.
        self._names = tuple(self.probes)
        self._fns = tuple(self.probes.values())
        self._checks = [(r, self._names.index(r.probe), _OPS[r.op])
                        for r in self.rules if r.probe in self.probes]
        self._summary_rules = [r for r in self.rules
                               if r.value_of is not None]
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
            for rule, i, healthy in self._checks:
                if healthy(values[i], rule.threshold):
                    self._breached.discard(rule.name)
                elif rule.name not in self._breached:
                    self._breached.add(rule.name)
                    self._alert(rule.name, t, values[i], rule.threshold,
                                rule.description or
                                f"{rule.probe} {rule.op} {rule.threshold} "
                                f"violated")

    # -- folds ---------------------------------------------------------------

    @property
    def series(self) -> dict[str, list[tuple[float, float]]]:
        """``name -> [(t, value), ...]`` per probe, folded from this
        sampler's rows."""
        rows = self._rows
        return {name: [(row.t, row.values[i]) for row in rows]
                for i, name in enumerate(self._names)}

    def finalize(self, trace: Any) -> list[SloAlert]:
        """Fold the rows into the ``probe.<name>`` gauges and evaluate
        summary SLOs over the finished trace's stage totals.

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
        totals = trace.stage_totals()
        end = max([s.t_end for s in trace.closed_spans()], default=0.0)
        for rule in self._summary_rules:
            value = rule.value_of(totals)
            if not rule.healthy(value):
                self._alert(rule.name, end, value, rule.threshold,
                            rule.description or f"summary SLO {rule.name} "
                                                f"violated")
        return self.alerts

    def _alert(self, rule: str, t: float, value: float, threshold: float,
               message: str) -> None:
        key = (rule, t)
        if key in self._alerted:
            # A sampled and a summary rule with the same id judging the
            # same window alert once, not once per rule kind.
            return
        self._alerted.add(key)
        self.alerts.append(SloAlert(rule=rule, t=t, value=value,
                                    threshold=threshold, message=message))
        if self.tracer.enabled:
            self.tracer.instant("slo.breach", lane="slo", rule=rule,
                                value=value, threshold=threshold)


def default_slos(n_buckets: int) -> tuple[SloRule, ...]:
    """The default rule set for a staging replay: bounded scheduler
    backlog (a queue deeper than 4x the bucket pool means staging has
    stopped absorbing the arrival rate) plus the paper's in-situ budget."""
    return (
        SloRule(
            name="queue-backlog",
            probe="sched.queue_depth",
            op="<=",
            threshold=4.0 * n_buckets,
            description=f"scheduler backlog stays within 4x the "
                        f"{n_buckets}-bucket pool",
        ),
        insitu_share_slo(),
    )

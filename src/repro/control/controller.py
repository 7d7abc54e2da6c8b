"""Online adaptive in-situ/in-transit placement controller.

The paper fixes the split between in-situ and in-transit stages per
analysis for the whole run; §V motivates concurrent analysis precisely
because it enables steering. This module closes that loop: a
:class:`PlacementController` rides a :meth:`ScaledExperiment.run_schedule
<repro.core.runner.ScaledExperiment.run_schedule>` replay, samples the
standard probes (queue depth, busy buckets, NIC occupancy) into windowed
series, decomposes the window's completed in-transit tasks into
queue-wait / transport / compute shares (the same axes as
:func:`repro.obs.blame.blame`), and every ``window`` analysed steps
re-decides

* **pool size** — elastically grows or shrinks the staging-bucket pool
  through :meth:`DataSpaces.scale_to
  <repro.staging.dataspaces.DataSpaces.scale_to>`, bounded by the
  experiment's ``staging_memory_needed``;
* **placement** — pulls a movable analysis' in-transit stage in-situ when
  transport + queue-wait dominate its latency and the pool can grow no
  further, and pushes it back in-transit once the in-situ share of the
  simulation timeline breaches the SLO budget.

Every effective decision is recorded to the shared space (name
``"controller"``), exactly the way steering events are, and mirrored to
``controller.*`` metrics. All inputs are DES-deterministic — two runs
with the same seed produce byte-identical decision logs.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.control.hysteresis import Cooldown
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import ReplayPlan, ScaledExperiment
    from repro.staging.dataspaces import DataSpaces

#: Placement states of an analysis' completion stage.
PLACE_INTRANSIT = "intransit"
PLACE_INSITU = "insitu"

#: Analyses whose completion stage the controller may move by default:
#: topology's serial merge-tree glue is the paper's textbook candidate —
#: its intermediate data is small but its in-transit latency is long.
DEFAULT_MOVABLE = ("hybrid in-situ/in-transit topology",)


@dataclass(frozen=True)
class ControlPolicy:
    """Knobs of the adaptive controller (all thresholds deterministic)."""

    #: Re-decide every this many analysed steps.
    window: int = 2
    #: Grow the pool when the queue holds more than this many tasks per
    #: committed bucket at a window boundary…
    backlog_per_bucket: float = 1.0
    #: …or when queue-wait exceeds this share of the window's task latency.
    grow_queue_share: float = 0.5
    #: Buckets added (or retired) per pool decision.
    grow_step: int = 2
    #: Shrink when the queue is empty and at least this fraction of the
    #: committed pool sat idle at the window boundary.
    shrink_idle_frac: float = 0.95
    #: Floor for scale-down; None = the run's initial bucket count (the
    #: default controller never shrinks below the configured split).
    min_buckets: int | None = None
    #: Hard ceiling for scale-up; None = 4x the initial bucket count,
    #: further bounded by ``memory_budget_bytes``.
    max_buckets: int | None = None
    #: Staging-memory bound inverted through ``staging_memory_needed``;
    #: None = the memory a ``max_buckets``-sized pool would need (i.e.
    #: the cap is the bucket ceiling, explicitly memory-priced).
    memory_budget_bytes: int | None = None
    #: Pull an analysis in-situ when transport+queue-wait reach this share
    #: of its window latency and the pool cannot grow further.
    pull_threshold: float = 0.75
    #: Push it back in-transit when in-situ work exceeds this share of the
    #: simulation timeline (the probe layer's in-situ SLO axis).
    insitu_budget: float = 0.5
    #: Windows between successive decisions of the same actuator — the
    #: shared :class:`~repro.control.hysteresis.Cooldown` hysteresis.
    cooldown_windows: int = 2
    #: ``AnalyticsVariant.value`` names the controller may re-place.
    movable: tuple[str, ...] = DEFAULT_MOVABLE

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.grow_step < 1:
            raise ValueError(f"grow_step must be >= 1, got {self.grow_step}")
        for name in ("grow_queue_share", "shrink_idle_frac",
                     "pull_threshold", "insitu_budget"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be >= 0")


@dataclass(frozen=True)
class WindowSignals:
    """One decision window's observed state (the controller's inputs)."""

    window: int
    t_start: float
    t_end: float
    #: Live probe reads at the window boundary.
    queue_depth: float
    idle_buckets: float
    live_buckets: int
    nic_busy: float
    #: In-transit tasks that finished inside the window.
    n_results: int
    #: Shares of the window's summed task latency (blame axes).
    queue_wait_share: float
    transport_share: float
    compute_share: float
    #: In-situ seconds over simulation-timeline seconds this window.
    insitu_share: float
    #: Per-analysis (queue_wait + transport) share of its own latency.
    analysis_pressure: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "queue_depth": self.queue_depth,
            "idle_buckets": self.idle_buckets,
            "live_buckets": self.live_buckets,
            "nic_busy": self.nic_busy,
            "n_results": self.n_results,
            "queue_wait_share": self.queue_wait_share,
            "transport_share": self.transport_share,
            "compute_share": self.compute_share,
            "insitu_share": self.insitu_share,
            "analysis_pressure": dict(sorted(self.analysis_pressure.items())),
        }


@dataclass(frozen=True)
class PlacementDecision:
    """One effective controller decision (recorded to the shared space)."""

    seq: int
    window: int
    t: float
    #: ``"pool"`` (scale the bucket pool) or ``"placement"`` (move an
    #: analysis between in-transit and in-situ).
    kind: str
    #: The bucket pool, or the analysis name being moved.
    subject: str
    before: str
    after: str
    reason: str
    signals: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "window": self.window,
            "t": self.t,
            "kind": self.kind,
            "subject": self.subject,
            "before": self.before,
            "after": self.after,
            "reason": self.reason,
            "signals": self.signals,
        }


class PlacementController:
    """Windowed feedback controller over a ``run_schedule`` replay.

    Bind it to a run with :meth:`begin_run` (``run_schedule(controller=)``
    does this), then the driver calls :meth:`note_step` per analysed step
    and :meth:`on_window` at every window boundary. State is fully reset
    by ``begin_run``, so one instance can replay many runs.
    """

    def __init__(self, policy: ControlPolicy | None = None) -> None:
        self.policy = policy or ControlPolicy()
        self.decisions: list[PlacementDecision] = []
        self.placements: dict[Any, str] = {}
        #: (time, committed pool size) after every window and decision.
        self.pool_trajectory: list[tuple[float, int]] = []
        #: Windowed probe series sampled at decision boundaries:
        #: ``{probe name: [(t, value), ...]}``.
        self.probe_series: dict[str, list[tuple[float, float]]] = {}
        self.signal_history: list[WindowSignals] = []
        self.max_buckets = 0
        self.min_buckets = 0
        self._ds: DataSpaces | None = None
        self._movable: tuple[Any, ...] = ()
        self.memory_budget_bytes = 0
        self._probe_map: Mapping[str, Callable[[], float]] = {}
        self._window = 0
        self._t_prev = 0.0
        self._win_sim = 0.0
        self._win_insitu = 0.0
        self._pool_cd = Cooldown(self.policy.cooldown_windows)
        self._place_cd: dict[Any, Cooldown] = {}

    # -- run binding ---------------------------------------------------------

    def begin_run(self, *, experiment: "ScaledExperiment",
                  ds: "DataSpaces", plan: "ReplayPlan",
                  probe_map: Mapping[str, Callable[[], float]] | None = None
                  ) -> None:
        """Reset all state and bind the controller to one replay."""
        pol = self.policy
        analyses = plan.variants()
        n_buckets = plan.buckets(experiment.config)
        analysis_interval = plan.analysis_interval
        self._ds = ds
        self._probe_map = dict(probe_map or {})
        self.decisions = []
        self.signal_history = []
        self.probe_series = {name: [] for name in self._probe_map}
        self.placements = {v: PLACE_INTRANSIT for v in analyses}
        self._movable = tuple(v for v in analyses if v.value in pol.movable)
        self._place_cd = {v: Cooldown(pol.cooldown_windows)
                          for v in self._movable}
        self._pool_cd = Cooldown(pol.cooldown_windows)
        self._window = 0
        self._t_prev = 0.0
        self._win_sim = 0.0
        self._win_insitu = 0.0
        self.min_buckets = (pol.min_buckets if pol.min_buckets is not None
                            else n_buckets)
        hard_cap = (pol.max_buckets if pol.max_buckets is not None
                    else 4 * n_buckets)
        budget = pol.memory_budget_bytes
        if budget is None:
            budget = experiment.staging_memory_needed(analysis_interval,
                                                      hard_cap)
        self.memory_budget_bytes = budget
        self.max_buckets = max(
            (n for n in range(1, hard_cap + 1)
             if experiment.staging_memory_needed(analysis_interval, n)
             <= budget),
            default=1)
        self.pool_trajectory = [(0.0, n_buckets)]

    # -- per-step accounting (called by the driver) --------------------------

    def note_step(self, sim_seconds: float, insitu_seconds: float) -> None:
        """Account one analysed step's simulation-timeline split."""
        self._win_sim += sim_seconds
        self._win_insitu += insitu_seconds

    def insitu_placed(self) -> list[Any]:
        """Analyses whose completion stage currently runs in-situ."""
        return [v for v, p in self.placements.items() if p == PLACE_INSITU]

    # -- window boundary ------------------------------------------------------

    def on_window(self, now: float) -> None:
        """Observe the closing window and apply any due decisions."""
        self._window += 1
        for name, fn in self._probe_map.items():
            self.probe_series[name].append((now, float(fn())))
        sig = self._signals(now)
        self.signal_history.append(sig)
        self._mirror_metrics(sig)
        self._decide_pool(sig)
        self._decide_placement(sig)
        self.pool_trajectory.append((now, self._ds.committed_buckets()))
        self._t_prev = now
        self._win_sim = 0.0
        self._win_insitu = 0.0

    def _signals(self, now: float) -> WindowSignals:
        ds = self._ds
        results = [r for r in ds.all_results()
                   if self._t_prev < r.finish_time <= now]
        qw = sum(r.assign_time - r.enqueue_time for r in results)
        tr = sum(r.pull_done_time - r.assign_time for r in results)
        cp = sum(r.finish_time - r.pull_done_time for r in results)
        total = qw + tr + cp
        pressure: dict[str, float] = {}
        for analysis in {r.analysis for r in results}:
            rs = [r for r in results if r.analysis == analysis]
            lat = sum(r.finish_time - r.enqueue_time for r in rs)
            moved = sum((r.assign_time - r.enqueue_time)
                        + (r.pull_done_time - r.assign_time) for r in rs)
            pressure[analysis] = moved / lat if lat > 0 else 0.0
        timeline = self._win_sim + self._win_insitu
        return WindowSignals(
            window=self._window, t_start=self._t_prev, t_end=now,
            queue_depth=float(ds.scheduler.pending_tasks),
            idle_buckets=float(ds.scheduler.idle_buckets),
            live_buckets=ds.live_buckets(),
            nic_busy=float(self._probe_map["nic.busy_channels"]())
            if "nic.busy_channels" in self._probe_map else 0.0,
            n_results=len(results),
            queue_wait_share=qw / total if total > 0 else 0.0,
            transport_share=tr / total if total > 0 else 0.0,
            compute_share=cp / total if total > 0 else 0.0,
            insitu_share=self._win_insitu / timeline if timeline > 0 else 0.0,
            analysis_pressure=pressure,
        )

    # -- decisions -----------------------------------------------------------

    def _decide_pool(self, sig: WindowSignals) -> None:
        pol = self.policy
        committed = self._ds.committed_buckets()
        backlogged = (sig.queue_depth > pol.backlog_per_bucket
                      * max(1, committed)
                      or (sig.n_results > 0
                          and sig.queue_wait_share >= pol.grow_queue_share))
        if backlogged:
            target = min(committed + pol.grow_step, self.max_buckets)
            if target > committed and self._pool_cd.ready(self._window):
                self._pool_cd.fire(self._window)
                self._ds.scale_to(target)
                self._record(
                    "pool", "staging-pool", str(committed), str(target),
                    f"queue backlog ({sig.queue_depth:.0f} tasks, "
                    f"queue-wait share {sig.queue_wait_share:.2f}) — "
                    f"grow within memory bound ({self.max_buckets} max)",
                    sig)
            return
        if (sig.queue_depth == 0 and committed > self.min_buckets
                and sig.idle_buckets >= pol.shrink_idle_frac * committed):
            target = max(self.min_buckets, committed - pol.grow_step)
            if target < committed and self._pool_cd.ready(self._window):
                self._pool_cd.fire(self._window)
                self._ds.scale_to(target)
                self._record(
                    "pool", "staging-pool", str(committed), str(target),
                    f"idle pool ({sig.idle_buckets:.0f}/{committed} free, "
                    f"empty queue) — retire toward floor "
                    f"({self.min_buckets})",
                    sig)

    def _decide_placement(self, sig: WindowSignals) -> None:
        pol = self.policy
        committed = self._ds.committed_buckets()
        for variant in self._movable:
            cd = self._place_cd[variant]
            if not cd.ready(self._window):
                continue
            placed = self.placements[variant]
            if placed == PLACE_INTRANSIT:
                share = sig.analysis_pressure.get(variant.value)
                if (share is not None and share >= pol.pull_threshold
                        and committed >= self.max_buckets):
                    cd.fire(self._window)
                    self.placements[variant] = PLACE_INSITU
                    self._record(
                        "placement", variant.value,
                        PLACE_INTRANSIT, PLACE_INSITU,
                        f"transport+queue-wait at {share:.2f} of its "
                        f"latency with the pool at its memory bound — "
                        f"run the completion stage in-situ",
                        sig)
            elif sig.insitu_share > pol.insitu_budget:
                cd.fire(self._window)
                self.placements[variant] = PLACE_INTRANSIT
                self._record(
                    "placement", variant.value,
                    PLACE_INSITU, PLACE_INTRANSIT,
                    f"in-situ share {sig.insitu_share:.2f} breaches the "
                    f"{pol.insitu_budget:.2f} budget — move the stage "
                    f"back in-transit",
                    sig)

    # -- recording -----------------------------------------------------------

    def _record(self, kind: str, subject: str, before: str, after: str,
                reason: str, sig: WindowSignals) -> None:
        decision = PlacementDecision(
            seq=len(self.decisions), window=sig.window, t=sig.t_end,
            kind=kind, subject=subject, before=before, after=after,
            reason=reason, signals=sig.to_dict())
        self.decisions.append(decision)
        # Shared-space decision history, the way steering events are kept.
        self._ds.put("controller", len(self.decisions), decision)
        tracer = get_tracer()
        tracer.counter("controller.decisions")
        if kind == "pool":
            grew = int(after) > int(before)
            tracer.counter("controller.pool_grow" if grew
                           else "controller.pool_shrink")
        else:
            tracer.counter("controller.push_intransit"
                           if after == PLACE_INTRANSIT
                           else "controller.pull_insitu")
        tracer.instant("controller.decision", lane="controller",
                       kind=kind, subject=subject, before=before,
                       after=after, window=sig.window)
        if tracer.bus is not None:
            ctx = tracer.context_tags()
            tracer.bus.publish(
                "decision", f"controller.{kind}", t=sig.t_end,
                lane="controller", tenant=ctx.get("tenant"),
                job_id=ctx.get("job"), subject=subject, before=before,
                after=after, window=sig.window,
                message=f"{kind} {subject}: {before} -> {after} "
                        f"({reason})")

    def _mirror_metrics(self, sig: WindowSignals) -> None:
        m = get_tracer().metrics
        m.gauge("controller.queue_wait_share").set(sig.queue_wait_share)
        m.gauge("controller.transport_share").set(sig.transport_share)
        m.gauge("controller.insitu_share").set(sig.insitu_share)
        m.gauge("controller.pool_size").set(self._ds.committed_buckets())
        m.gauge("controller.queue_depth").set(sig.queue_depth)

    # -- reporting -----------------------------------------------------------

    def decision_log(self) -> list[dict[str, Any]]:
        """The decision history as plain dicts (JSON-serializable)."""
        return [d.to_dict() for d in self.decisions]

    def decision_log_json(self) -> str:
        """Canonical JSON of the decision log — byte-identical across
        same-seed runs (every input is DES-deterministic)."""
        return json.dumps(self.decision_log(), sort_keys=True, indent=2)

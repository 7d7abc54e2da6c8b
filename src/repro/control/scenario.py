"""Adaptive-vs-static comparison under an injected fault plan.

The controller's value proposition is testable: run the same fault plan
(bucket crashes + RDMA stalls) twice — once with the paper's static
split, once with the :class:`~repro.control.controller.PlacementController`
— and compare makespans. Crashes permanently shrink a static pool (the
budgeted supervisor is off by default), so queue waits compound step
after step; the controller observes the backlog in its window signals and
scales the pool back up at DES time, recovering the lost throughput.
Everything is seeded, so the comparison — and the decision log — is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.control.controller import PlacementController
from repro.core.runner import ExperimentConfig, ReplayPlan, ScaledExperiment

#: The seeded crash + stall plan ``repro check control`` replays: two
#: bucket crashes and 5 % stalled pulls on an under-provisioned pool.
CONTROL_PLAN = ReplayPlan(n_steps=12, n_buckets=4, lease_timeout=5.0,
                          crash_times=(30.0, 55.0), pull_stall_rate=0.05,
                          pull_stall_seconds=2.0)


@dataclass
class ControlReport:
    """Outcome of one adaptive-vs-static fault scenario."""

    static_makespan: float
    adaptive_makespan: float
    static_max_queue_wait: float
    adaptive_max_queue_wait: float
    controller: PlacementController
    static_result: Any = field(repr=False, default=None)
    adaptive_result: Any = field(repr=False, default=None)
    config: dict[str, Any] = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        """True when the adaptive run met or beat the static makespan."""
        return self.adaptive_makespan <= self.static_makespan

    @property
    def speedup(self) -> float:
        """Static over adaptive makespan (> 1 means the controller won)."""
        if self.adaptive_makespan <= 0:
            return 1.0
        return self.static_makespan / self.adaptive_makespan

    def to_metrics(self) -> dict[str, float]:
        """Flatten to perf-dashboard metrics."""
        return {
            "controller.static_makespan_s": self.static_makespan,
            "controller.adaptive_makespan_s": self.adaptive_makespan,
            "controller.speedup": self.speedup,
            "controller.decisions": float(len(self.controller.decisions)),
            "controller.pool_final": float(
                self.controller.pool_trajectory[-1][1]
                if self.controller.pool_trajectory else 0),
        }

    def table(self) -> str:
        """The fault plan, static vs adaptive, the speedup and the decision
        log as text (the ``repro check control`` report)."""
        from repro.util import TextTable

        cfg, ctrl = self.config, self.controller
        table = TextTable(["run", "makespan (s)", "max queue wait (s)",
                           "decisions", "final pool"])
        table.add_row(["static", f"{self.static_makespan:.4f}",
                       f"{self.static_max_queue_wait:.4f}",
                       0, cfg["n_buckets"]])
        table.add_row(["adaptive", f"{self.adaptive_makespan:.4f}",
                       f"{self.adaptive_max_queue_wait:.4f}",
                       len(ctrl.decisions), ctrl.pool_trajectory[-1][1]])
        lines = [f"fault plan: crashes at {list(cfg['crash_times'])} s, "
                 f"{100 * cfg['pull_stall_rate']:.0f}% pulls stall "
                 f"{cfg['pull_stall_seconds']:.1f} s "
                 f"(seed {cfg['fault_seed']})",
                 table.render(),
                 f"speedup: {self.speedup:.2f}x "
                 f"(memory-bounded pool cap: {ctrl.max_buckets} buckets)",
                 ""]
        if ctrl.decisions:
            lines.append("decision log:")
            lines += [f"  [w{d.window} t={d.t:.2f}s] {d.kind}: {d.subject} "
                      f"{d.before} -> {d.after}  ({d.reason})"
                      for d in ctrl.decisions]
        else:
            lines.append("no decisions taken (healthy run)")
        return "\n".join(lines)

    def summary(self) -> dict[str, Any]:
        """JSON-serializable artifact: makespans, decisions, trajectory."""
        return {
            "config": self.config,
            "static_makespan_s": self.static_makespan,
            "adaptive_makespan_s": self.adaptive_makespan,
            "speedup": self.speedup,
            "improved": self.improved,
            "static_max_queue_wait_s": self.static_max_queue_wait,
            "adaptive_max_queue_wait_s": self.adaptive_max_queue_wait,
            "pool_trajectory": [[t, n] for t, n
                                in self.controller.pool_trajectory],
            "decisions": self.controller.decision_log(),
        }


def run_control_scenario(plan: ReplayPlan = CONTROL_PLAN,
                         controller: PlacementController | None = None,
                         ) -> ControlReport:
    """Run the fault-injected adaptive-vs-static comparison of ``plan``.

    Both replays use the paper's 4896-core configuration and the same
    plan (same seed, same crash plan, same stall odds). The static run
    keeps whatever pool survives the crashes; the adaptive run hands the
    same replay a controller.
    """
    exp = ScaledExperiment(ExperimentConfig.paper_4896())
    static = exp.run_schedule(plan)
    ctrl = controller or PlacementController()
    adaptive = exp.run_schedule(plan, controller=ctrl)
    return ControlReport(
        static_makespan=static.makespan,
        adaptive_makespan=adaptive.makespan,
        static_max_queue_wait=static.max_queue_wait(),
        adaptive_max_queue_wait=adaptive.max_queue_wait(),
        controller=ctrl,
        static_result=static,
        adaptive_result=adaptive,
        config={"experiment": exp.config.name, **plan.to_dict()})

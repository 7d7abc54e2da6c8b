"""Computational steering off in-transit results (paper §V).

"...there are several advantages to a concurrent approach, including
computational steering, on-the-fly visualization, and feature tracking."

A :class:`SteeringRule` pairs a predicate over completed in-transit task
results with an action on the running framework. The framework drains the
staging engine after every simulation step, evaluates the rules against
newly completed results, applies the actions, and records every firing in
the shared space (name ``"steering"``) so all components can observe the
decision history — the DataSpaces-mediated coordination pattern of §IV.

Rule factories below cover the steering moves the paper's use case wants:
refining the analysis cadence when interesting topology appears, and
triggering a checkpoint when an event (e.g. an ignition burst) fires.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.control.hysteresis import Cooldown
from repro.staging.descriptors import TaskResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.framework import HybridFramework


@dataclass
class SteeringRule:
    """When ``predicate(result)`` holds, run ``action(framework, result)``.

    An action may return ``False`` to report that it had no effect (e.g.
    a cadence change to the interval already in force); such no-op
    considerations do not count as firings and are not recorded in the
    shared-space decision history, so an opposed rule pair cannot flap
    the history with repeated identical decisions.
    """

    name: str
    predicate: Callable[[TaskResult], bool]
    #: Returns ``False`` for an ineffective (no-op) application; any other
    #: return value (including ``None``) counts as a firing.
    action: Callable[["HybridFramework", TaskResult], Any]
    #: Fire at most this many times (None = unlimited).
    max_firings: int | None = None
    #: Hysteresis: after a firing, suppress re-firing until the observed
    #: result's timestep has advanced by at least this many steps. The
    #: same :class:`~repro.control.hysteresis.Cooldown` primitive damps
    #: the placement controller's decisions.
    cooldown_steps: int = 0
    firings: int = field(default=0, init=False)
    _cooldown: Cooldown = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._cooldown = Cooldown(self.cooldown_steps)

    def consider(self, framework: "HybridFramework", result: TaskResult) -> bool:
        """Evaluate and (maybe) fire; returns True if the rule fired."""
        if self.max_firings is not None and self.firings >= self.max_firings:
            return False
        if not self._cooldown.ready(result.timestep):
            return False
        if not self.predicate(result):
            return False
        if self.action(framework, result) is False:
            return False  # no effective change — not a firing
        self.firings += 1
        self._cooldown.fire(result.timestep)
        return True


def refine_cadence_on_topology(n_maxima: int, new_interval: int,
                               min_persistence: float = 0.0) -> SteeringRule:
    """Analyse more often once the merge tree shows >= ``n_maxima``
    features — the "capture intermittent events at higher frequency"
    steering move. Fires only when the interval actually tightens."""
    if n_maxima < 1 or new_interval < 1:
        raise ValueError("n_maxima and new_interval must be >= 1")

    def predicate(result: TaskResult) -> bool:
        if result.analysis != "topology" or result.value is None:
            return False
        tree = result.value.reduced()
        if min_persistence > 0:
            from repro.analysis.topology.simplify import simplify
            tree = simplify(tree, min_persistence)
        return len(tree.leaves()) >= n_maxima

    def action(framework: "HybridFramework", result: TaskResult) -> Any:
        tightened = min(framework.analysis_interval, new_interval)
        if tightened == framework.analysis_interval:
            return False
        framework.analysis_interval = tightened
        return True

    return SteeringRule(name=f"refine-cadence(>={n_maxima} maxima)",
                        predicate=predicate, action=action)


def checkpoint_on_hot_spot(threshold: float, path: str,
                           variable: str = "T") -> SteeringRule:
    """Write a full checkpoint the first time the in-transit statistics
    report ``max(variable) >= threshold`` (an ignition event)."""

    def predicate(result: TaskResult) -> bool:
        return (result.analysis == "statistics"
                and result.value is not None
                and variable in result.value
                and result.value[variable].maximum >= threshold)

    def action(framework: "HybridFramework", result: TaskResult) -> None:
        from repro.io.bp import BPFile
        fields = framework.solver.assemble()
        with BPFile.create(path, attrs={"step": result.timestep,
                                        "trigger": "hot-spot",
                                        "threshold": threshold}) as bp:
            for name, arr in fields.items():
                bp.write(name, arr)

    return SteeringRule(name=f"checkpoint(max {variable} >= {threshold})",
                        predicate=predicate, action=action,
                        max_firings=1)


@dataclass(frozen=True)
class SteeringEvent:
    """One recorded rule firing."""

    rule: str
    timestep: int
    analysis: str
    detail: dict[str, Any]

"""Differential oracle for the burn-rate monitor.

The oracle is the window scan :class:`~repro.obs.live.BurnRateMonitor`
once shipped: one ``(t, bad)`` window per (tenant, objective), trimmed
to the slow window, with both burn rates recounted over the whole window
on every observation. The monitor under test keeps running counts per
window instead, so on a time-ordered stream every burn rate, alert and
firing state it reaches must equal the oracle's bit for bit.
"""

from __future__ import annotations

from collections import deque


def burn(window, cutoff: float, budget: float) -> float:
    """The bad fraction of the samples at or after ``cutoff``, over the
    error budget (0 for an empty window)."""
    total = bad = 0
    for t, is_bad in window:
        if t >= cutoff:
            total += 1
            bad += is_bad
    return (bad / total) / budget if total else 0.0


class ScanMonitor:
    """The window-scan monitor: ``observe`` returns each objective's
    ``(key, burn_fast, burn_slow, fired)`` for one observation."""

    def __init__(self, objectives) -> None:
        self.objectives = tuple(objectives)
        self.windows: dict[tuple[str, str], deque] = {}
        self.firing: set[tuple[str, str]] = set()
        #: ``(tenant, objective, t, value, burn_fast, burn_slow)`` per
        #: alert, in fire order.
        self.alerts: list[tuple] = []

    def observe(self, tenant: str, metric: str, t: float,
                value: float) -> list[tuple]:
        out = []
        for obj in self.objectives:
            if obj.metric != metric:
                continue
            key = (tenant, obj.name)
            window = self.windows.setdefault(key, deque())
            window.append((t, not value <= obj.target))
            while window and window[0][0] < t - obj.slow_window:
                window.popleft()
            burn_fast = burn(window, t - obj.fast_window, obj.budget)
            burn_slow = burn(window, t - obj.slow_window, obj.budget)
            unhealthy = (burn_fast >= obj.fast_burn
                         and burn_slow >= obj.slow_burn)
            fired = unhealthy and key not in self.firing
            if fired:
                self.firing.add(key)
                self.alerts.append((tenant, obj.name, t, value, burn_fast,
                                    burn_slow))
            elif not unhealthy:
                self.firing.discard(key)
            out.append((key, burn_fast, burn_slow, fired))
        return out

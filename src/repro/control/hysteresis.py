"""Hysteresis primitives shared by steering rules and the controller.

Both feedback paths — the per-result steering rules of
:mod:`repro.core.steering` and the windowed placement controller of
:mod:`repro.control.controller` — need the same debounce: once an
actuator fires, suppress re-firing until the system has moved far enough
along some monotone axis (timesteps for steering, decision windows for
the controller). Keeping the primitive here, in a leaf module with no
other repro imports, lets both layers share one knob without an import
cycle.
"""

from __future__ import annotations


class Cooldown:
    """Refractory period along a monotone position axis.

    After :meth:`fire` at position ``x``, :meth:`ready` stays False until
    the position has advanced by at least ``period``. A period of 0 is
    always ready — the caller gets pure no-op/flap suppression from its
    own effective-change check, with no extra damping.
    """

    __slots__ = ("period", "last_fired")

    def __init__(self, period: float = 0.0) -> None:
        if period < 0:
            raise ValueError(f"cooldown period must be >= 0, got {period}")
        self.period = period
        self.last_fired: float | None = None

    def ready(self, position: float) -> bool:
        return (self.last_fired is None
                or position - self.last_fired >= self.period)

    def fire(self, position: float) -> None:
        self.last_fired = position

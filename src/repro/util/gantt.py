"""Text-mode Gantt charts for schedule traces.

Renders per-actor activity spans on a character timeline — used by the
benchmark harness to visualise bucket occupancy in the Fig.-5 schedule
replays (which bucket held which task, when).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One activity: an actor busy on a label during [start, end)."""

    actor: str
    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"span times must be finite, got "
                             f"[{self.start}, {self.end})")
        if self.end < self.start:
            raise ValueError(f"span ends ({self.end}) before it starts "
                             f"({self.start})")


def render_gantt(spans: list[Span], width: int = 72) -> str:
    """Render spans as one text row per actor.

    Each actor's row shows '#' where it is busy; overlapping spans on one
    actor merge visually. The header shows the time range.
    """
    if not spans:
        return "(no spans)"
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    lo = min(s.start for s in spans)
    hi = max(s.end for s in spans)
    if hi <= lo:
        hi = lo + 1.0
    scale = width / (hi - lo)

    # Group once instead of re-scanning every span per actor (the old
    # per-actor scan made rendering quadratic in the span count).
    by_actor: dict[str, list[Span]] = {}
    for s in spans:
        by_actor.setdefault(s.actor, []).append(s)
    actors = sorted(by_actor)
    name_w = max(len(a) for a in actors)
    lines = [f"{'':{name_w}} |{lo:.1f}s{'':{max(0, width - 12)}}{hi:.1f}s"]
    for actor in actors:
        row = [" "] * width
        for s in by_actor[actor]:
            a = int((s.start - lo) * scale)
            b = max(a + 1, int((s.end - lo) * scale))
            for i in range(a, min(b, width)):
                row[i] = "#"
        lines.append(f"{actor:{name_w}} |{''.join(row)}|")
    return "\n".join(lines)


def utilisation(spans: list[Span], t0: float, t1: float) -> dict[str, float]:
    """Busy fraction per actor over [t0, t1) (overlaps merged)."""
    if t1 <= t0:
        raise ValueError(f"empty window [{t0}, {t1})")
    by_actor: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        a, b = max(s.start, t0), min(s.end, t1)
        if b > a:
            by_actor.setdefault(s.actor, []).append((a, b))
    out: dict[str, float] = {}
    for actor, intervals in by_actor.items():
        intervals.sort()
        busy = 0.0
        cur_a, cur_b = intervals[0]
        for a, b in intervals[1:]:
            if a > cur_b:
                busy += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        busy += cur_b - cur_a
        out[actor] = busy / (t1 - t0)
    return out

"""Timing loop and the statistics the harness reports (stdlib only)."""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import calib

#: Percentiles the harness may report, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: A calibration reading this far above the run's first quartile marks its
#: round as disturbed (``host.disturbed_frac``).
DISTURBED_RATIO = 1.25
#: Share of rounds dropped at each end before ``work_per_s`` averages the
#: rest: a periodic cost that hits more than one round in ten still counts,
#: one preempted round does not.
TRIM = 0.10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_frac(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the spread the
    driver compares against each metric's bound)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def top_percentile(n: int) -> int:
    """The highest percentile of ``PERCENTILES`` that still has at least
    ``MIN_BEYOND`` of ``n`` samples beyond it (50 when none has)."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n - int(-(-n * p // 100)) >= MIN_BEYOND:
            best = p
    return best


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    """Mean of what is left after dropping ``trim`` of the samples at
    each end."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def normalise(walls: Sequence[float], calibs: Sequence[float]) -> list[float]:
    """Round ``i`` divided by the mean of the calibration readings taken
    just before and just after it (``len(calibs) == len(walls) + 1``)."""
    if len(calibs) != len(walls) + 1:
        raise ValueError("need one calibration reading around every round")
    return [wall / ((calibs[i] + calibs[i + 1]) / 2.0)
            for i, wall in enumerate(walls)]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (children excluded), MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50_ms(ratios: Sequence[float]) -> float:
    """Median normalised round in reference-host milliseconds."""
    return median(ratios) * calib.CALIB_REF_MS


def percentile_ms(ratios: Sequence[float], p: float) -> float:
    return percentile(ratios, p) * calib.CALIB_REF_MS


def sustained_s(ratios: Sequence[float]) -> float:
    """Sustained reference-host seconds per round: the trimmed mean of
    the normalised rounds, so GC pauses and recurring slow rounds count
    and a disturbance cancels round by round."""
    return trimmed_mean(ratios) * calib.CALIB_REF_MS / 1e3


@dataclass
class Rounds:
    """Raw samples of one timed phase."""

    walls: list[float] = field(default_factory=list)
    calibs: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    failed: int = 0

    @property
    def n(self) -> int:
        return len(self.walls)

    @property
    def ratios(self) -> list[float]:
        return normalise(self.walls, self.calibs)

    def host_stats(self) -> dict[str, float]:
        q1, q2, q3 = quartiles(self.calibs)
        disturbed = sum(c > DISTURBED_RATIO * q1 for c in self.calibs)
        return {"host.calib_p50_ms": q2 * 1e3,
                "host.calib_iqr_frac": (q3 - q1) / q2,
                "host.disturbed_frac": disturbed / len(self.calibs)}


def timed_rounds(run_round: Callable[[], Any],
                 check: Callable[[Any], list[str]], rounds: int,
                 budget: float = float("inf"), floor: int | None = None
                 ) -> Rounds:
    """Closed loop, one client: ``rounds`` rounds, or fewer (never below
    ``floor``) once the phase has used ``budget`` seconds of wall clock.

    Outside the timed region, before every round: ``gc.collect()`` and one
    calibration reading; the round's output is checked after its clock
    stops. GC stays enabled inside the round. A round whose check reports
    anything, or that raises, is a failed operation.
    """
    floor = rounds if floor is None else floor
    out = Rounds()
    deadline = time.perf_counter() + budget
    gc.collect()
    out.calibs.append(calib.reading())
    while out.n < rounds and (out.n < floor or time.perf_counter() < deadline):
        result = None
        t0 = time.perf_counter()
        try:
            result = run_round()
            wall = time.perf_counter() - t0
            problems = check(result)
        except Exception:  # noqa: BLE001 — a failed op must not end the run
            wall = time.perf_counter() - t0
            problems = [traceback.format_exc(limit=4)]
        out.walls.append(wall)
        if problems:
            out.failed += 1
            out.errors.extend(problems)
        del result
        gc.collect()
        out.calibs.append(calib.reading())
    return out


def timed_pairs(run_a: Callable[[], Any], run_b: Callable[[], Any],
                check: Callable[[Any], list[str]], pairs: int
                ) -> tuple[Rounds, list[float], list[float]]:
    """``run_a`` and ``run_b`` alternating, ``pairs`` times each, so both
    see the same stretch of host weather and their medians compare.
    Returns the phase and each side's normalised rounds."""
    calls = itertools.count()
    both = timed_rounds(
        lambda: run_b() if next(calls) % 2 else run_a(), check, 2 * pairs)
    return both, both.ratios[0::2], both.ratios[1::2]


def timed_once(fn: Callable[[], Any]) -> tuple[float, Any]:
    """``fn()`` between two calibration readings: its wall time in
    reference-host milliseconds, and what it returned."""
    gc.collect()
    before = calib.reading()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    # Or the reading's own allocations trigger a full collection that has
    # to walk everything ``fn`` left behind, and reads slow.
    gc.collect()
    after = calib.reading()
    return wall / ((before + after) / 2.0) * calib.CALIB_REF_MS, out

"""Hybrid auto-correlative statistics (paper §VI future work).

"We plan to develop a hybrid in-situ/in-transit auto-correlative
statistical technique." This module implements it in the same
learn/derive mold as the descriptive statistics:

* **in-situ learn** — each rank keeps a short ring buffer of its block's
  recent time levels and accumulates, per lag k, the single-pass
  cross-sums ``(n, sum x_t, sum x_{t-k}, sum x_t^2, sum x_{t-k}^2,
  sum x_t x_{t-k})`` over all cells and steps. The accumulator is tiny
  (6 doubles per lag) and mergeable in any order — exactly the property
  that made the moment statistics staging-friendly;
* **in-transit derive** — a serial stage merges the per-rank partials and
  derives the temporal autocorrelation function
  ``rho(k) = cov(x_t, x_{t-k}) / (std(x_t) std(x_{t-k}))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.backend import kernel


@dataclass
class LagAccumulator:
    """Single-pass cross-moment sums for one lag."""

    n: int = 0
    sum_x: float = 0.0     # current values  x_t
    sum_y: float = 0.0     # lagged values   x_{t-k}
    sum_xx: float = 0.0
    sum_yy: float = 0.0
    sum_xy: float = 0.0

    def accumulate(self, current: np.ndarray, lagged: np.ndarray) -> None:
        x = np.asarray(current, dtype=np.float64).ravel()
        y = np.asarray(lagged, dtype=np.float64).ravel()
        if x.shape != y.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
        self.n += x.size
        self.sum_x += float(x.sum())
        self.sum_y += float(y.sum())
        self.sum_xx += float((x * x).sum())
        self.sum_yy += float((y * y).sum())
        self.sum_xy += float((x * y).sum())

    def merge(self, other: "LagAccumulator") -> "LagAccumulator":
        return LagAccumulator(
            n=self.n + other.n,
            sum_x=self.sum_x + other.sum_x,
            sum_y=self.sum_y + other.sum_y,
            sum_xx=self.sum_xx + other.sum_xx,
            sum_yy=self.sum_yy + other.sum_yy,
            sum_xy=self.sum_xy + other.sum_xy,
        )

    def correlation(self) -> float:
        """Pearson correlation of the (x_t, x_{t-k}) sample."""
        if self.n < 2:
            raise ValueError("need at least two samples to correlate")
        n = self.n
        cov = self.sum_xy / n - (self.sum_x / n) * (self.sum_y / n)
        var_x = self.sum_xx / n - (self.sum_x / n) ** 2
        var_y = self.sum_yy / n - (self.sum_y / n) ** 2
        denom = math.sqrt(max(var_x, 0.0)) * math.sqrt(max(var_y, 0.0))
        if denom == 0.0:
            return 0.0
        return min(1.0, max(-1.0, cov / denom))

    PACKED_DOUBLES = 6

    def pack(self) -> np.ndarray:
        return np.array([float(self.n), self.sum_x, self.sum_y,
                         self.sum_xx, self.sum_yy, self.sum_xy])

    @classmethod
    def unpack(cls, vec: np.ndarray) -> "LagAccumulator":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (cls.PACKED_DOUBLES,):
            raise ValueError(f"expected {cls.PACKED_DOUBLES} doubles, got {vec.shape}")
        return cls(n=int(vec[0]), sum_x=float(vec[1]), sum_y=float(vec[2]),
                   sum_xx=float(vec[3]), sum_yy=float(vec[4]),
                   sum_xy=float(vec[5]))


def _autocorr_cross_sums_reference(current: np.ndarray,
                                   history: list[np.ndarray]) -> np.ndarray:
    """:func:`_autocorr_cross_sums`' oracle: one lag at a time."""
    x = np.asarray(current, dtype=np.float64).ravel()
    out = np.empty((len(history), 6), dtype=np.float64)
    for i, lagged in enumerate(history):
        y = np.asarray(lagged, dtype=np.float64).ravel()
        if x.shape != y.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
        out[i] = (x.size, float(x.sum()), float(y.sum()),
                  float((x * x).sum()), float((y * y).sum()),
                  float((x * y).sum()))
    return out


@kernel("statistics.autocorr_cross_sums",
        reference=_autocorr_cross_sums_reference)
def _autocorr_cross_sums(current: np.ndarray,
                         history: list[np.ndarray]) -> np.ndarray:
    """Per-lag single-pass cross sums of ``current`` against each lagged
    field; row k-1 holds ``(n, sum x, sum y, sum x^2, sum y^2, sum xy)``
    for ``history[k-1]`` (the lag-k field).

    The history is stacked and all lags' sums come from batched axis-wise
    passes (``sum x`` and ``sum x^2`` once) — per-row pairwise summation
    keeps the sums bit-identical. A history of mixed shapes runs the
    reference, which raises for the first mismatch.
    """
    x = np.asarray(current, dtype=np.float64).ravel()
    if not history:
        return np.empty((0, 6), dtype=np.float64)
    ys = [np.asarray(h, dtype=np.float64).ravel() for h in history]
    if any(y.shape != x.shape for y in ys):
        return _autocorr_cross_sums_reference(current, history)
    stack = np.stack(ys)
    out = np.empty((len(ys), 6), dtype=np.float64)
    out[:, 0] = x.size
    out[:, 1] = float(x.sum())
    out[:, 2] = stack.sum(axis=1)
    out[:, 3] = float((x * x).sum())
    out[:, 4] = (stack * stack).sum(axis=1)
    out[:, 5] = (x[None, :] * stack).sum(axis=1)
    return out


def _autocorr_merge_reference(packed_partials: list[np.ndarray],
                              max_lag: int) -> np.ndarray:
    """:func:`_autocorr_merge`'s oracle: unpack and merge
    :class:`LagAccumulator` objects rank by rank."""
    k_doubles = LagAccumulator.PACKED_DOUBLES
    if max_lag == 0:
        return np.empty((0, k_doubles), dtype=np.float64)
    merged = [LagAccumulator() for _ in range(max_lag)]
    for vec in packed_partials:
        for k in range(max_lag):
            acc = LagAccumulator.unpack(
                vec[k * k_doubles:(k + 1) * k_doubles])
            merged[k] = merged[k].merge(acc)
    return np.stack([acc.pack() for acc in merged])


@kernel("statistics.autocorr_merge", reference=_autocorr_merge_reference)
def _autocorr_merge(packed_partials: list[np.ndarray],
                    max_lag: int) -> np.ndarray:
    """Left-fold merge of per-rank packed lag partials to ``(max_lag, 6)``.

    The partials are reshaped to ``(ranks, max_lag, 6)`` and the rank
    axis folds for every lag at once — additions in the same rank order,
    so the merged sums are bit-identical.
    """
    k_doubles = LagAccumulator.PACKED_DOUBLES
    if max_lag == 0:
        return np.empty((0, k_doubles), dtype=np.float64)
    if not packed_partials:
        return np.zeros((max_lag, k_doubles), dtype=np.float64)
    arr = np.stack([np.asarray(v, dtype=np.float64)
                    for v in packed_partials])
    arr = arr.reshape(arr.shape[0], max_lag, k_doubles)
    acc = np.zeros((max_lag, k_doubles), dtype=np.float64)
    for r in range(arr.shape[0]):
        acc = acc + arr[r]
    return acc


class AutocorrelationLearner:
    """The in-situ stage: one per rank, fed the rank's block every step.

    Keeps a ring buffer of the last ``max_lag`` blocks; each
    :meth:`observe` call updates every lag's accumulator against the
    buffered history.
    """

    def __init__(self, max_lag: int) -> None:
        if max_lag < 1:
            raise ValueError(f"max_lag must be >= 1, got {max_lag}")
        self.max_lag = max_lag
        self._history: list[np.ndarray] = []
        self.lags: dict[int, LagAccumulator] = {
            k: LagAccumulator() for k in range(1, max_lag + 1)}
        self.steps_observed = 0

    def observe(self, block: np.ndarray) -> None:
        """Feed this step's block; updates all available lags."""
        block = np.asarray(block, dtype=np.float64)
        n_lags = min(len(self._history), self.max_lag)
        if n_lags:
            sums = _autocorr_cross_sums(
                block, [self._history[-k] for k in range(1, n_lags + 1)])
            for k in range(1, n_lags + 1):
                acc = self.lags[k]
                row = sums[k - 1]
                acc.n += int(row[0])
                acc.sum_x += float(row[1])
                acc.sum_y += float(row[2])
                acc.sum_xx += float(row[3])
                acc.sum_yy += float(row[4])
                acc.sum_xy += float(row[5])
        self._history.append(block.copy())
        if len(self._history) > self.max_lag:
            self._history.pop(0)
        self.steps_observed += 1

    def pack(self) -> np.ndarray:
        """Wire format: max_lag x 6 doubles (the hybrid movement payload)."""
        return np.concatenate([self.lags[k].pack()
                               for k in range(1, self.max_lag + 1)])


def derive_autocorrelation(packed_partials: list[np.ndarray],
                           max_lag: int) -> dict[int, float]:
    """The serial in-transit stage: merge per-rank partials, derive rho(k)."""
    if not packed_partials:
        raise ValueError("no partials to derive from")
    k_doubles = LagAccumulator.PACKED_DOUBLES
    expected = (max_lag * k_doubles,)
    validated = []
    for vec in packed_partials:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != expected:
            raise ValueError(f"partial has shape {vec.shape}, expected {expected}")
        validated.append(vec)
    rows = _autocorr_merge(validated, max_lag)
    merged = {k: LagAccumulator.unpack(rows[k - 1])
              for k in range(1, max_lag + 1)}
    return {k: acc.correlation() for k, acc in merged.items() if acc.n >= 2}


def reference_autocorrelation(series: np.ndarray, max_lag: int
                              ) -> dict[int, float]:
    """Direct (batch) autocorrelation of a (steps, ...) series, for tests.

    Correlates the flattened fields at t and t-k over all cells and all
    valid step pairs — the same sample the streaming learner accumulates.
    """
    series = np.asarray(series, dtype=np.float64)
    out = {}
    for k in range(1, max_lag + 1):
        if series.shape[0] <= k:
            break
        x = series[k:].ravel()
        y = series[:-k].ravel()
        sx, sy = x.std(), y.std()
        if sx == 0 or sy == 0:
            out[k] = 0.0
        else:
            out[k] = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    return out

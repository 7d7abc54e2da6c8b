"""Parallel contingency statistics (Pébay/Thompson/Bennett [22]).

Bivariate contingency tables over binned field values, in the same
learn/derive/assess mold:

* **learn** — each rank histograms its block's (x, y) pairs against
  *globally agreed* bin edges; tables merge by addition (trivially
  associative — the design-trade-off point of [22] is exactly that the
  table, not the raw data, is the exchanged model);
* **derive** — chi-square statistic and p-value for independence,
  Cramér's V effect size, and mutual information;
* **assess** — per-observation pointwise mutual information, flagging
  cells whose joint behaviour departs from independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.backend import kernel


@kernel("statistics.bivariate_histogram")
def _bivariate_histogram(x: np.ndarray, y: np.ndarray, x_edges: np.ndarray,
                         y_edges: np.ndarray,
                         shape: tuple[int, int]) -> np.ndarray:
    """Joint histogram of paired observations against fixed bin edges.

    Out-of-range observations clamp into the edge bins. Backend seam:
    the numpy backend replaces the scatter-add with one ``np.bincount``
    over linearised cell indices — identical integer counts.
    """
    xi = np.clip(np.searchsorted(x_edges, x, side="right") - 1,
                 0, shape[0] - 1)
    yi = np.clip(np.searchsorted(y_edges, y, side="right") - 1,
                 0, shape[1] - 1)
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (xi, yi), 1)
    return counts


@dataclass
class ContingencyTable:
    """Joint counts of two binned variables."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray  # (nx_bins, ny_bins) int64

    @classmethod
    def empty(cls, x_edges: np.ndarray, y_edges: np.ndarray
              ) -> "ContingencyTable":
        x_edges = np.asarray(x_edges, dtype=np.float64)
        y_edges = np.asarray(y_edges, dtype=np.float64)
        for name, e in (("x", x_edges), ("y", y_edges)):
            if e.ndim != 1 or e.size < 2:
                raise ValueError(f"{name}_edges needs >= 2 edges")
            if not np.all(np.diff(e) > 0):
                raise ValueError(f"{name}_edges must be strictly increasing")
        return cls(x_edges=x_edges, y_edges=y_edges,
                   counts=np.zeros((x_edges.size - 1, y_edges.size - 1),
                                   dtype=np.int64))

    @classmethod
    def from_data(cls, x: np.ndarray, y: np.ndarray, x_edges: np.ndarray,
                  y_edges: np.ndarray) -> "ContingencyTable":
        """The per-rank learn pass: histogram the block's pairs.

        Out-of-range observations clamp into the edge bins (every cell of
        the domain is classified).
        """
        table = cls.empty(x_edges, y_edges)
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape != y.shape:
            raise ValueError(f"x and y differ in size: {x.size} vs {y.size}")
        table.counts = _bivariate_histogram(x, y, table.x_edges,
                                            table.y_edges,
                                            table.counts.shape)
        return table

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "ContingencyTable") -> "ContingencyTable":
        if (self.counts.shape != other.counts.shape
                or not np.array_equal(self.x_edges, other.x_edges)
                or not np.array_equal(self.y_edges, other.y_edges)):
            raise ValueError("tables must share identical bin edges")
        return ContingencyTable(self.x_edges, self.y_edges,
                                self.counts + other.counts)

    # -- derive ------------------------------------------------------------------

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.counts.sum(axis=1), self.counts.sum(axis=0)

    def derive(self) -> "ContingencyStatistics":
        n = self.n
        if n == 0:
            raise ValueError("cannot derive statistics from an empty table")
        # Drop all-zero rows/columns: they carry no evidence and break the
        # chi-square expected-count denominator.
        rows = self.counts.sum(axis=1) > 0
        cols = self.counts.sum(axis=0) > 0
        reduced = self.counts[np.ix_(rows, cols)]
        if reduced.shape[0] < 2 or reduced.shape[1] < 2:
            chi2, p, dof = 0.0, 1.0, 0
        else:
            from scipy import stats  # ~0.9 s import, paid only here
            chi2, p, dof, _ = stats.chi2_contingency(reduced)
        k = min(reduced.shape) if reduced.size else 1
        cramers_v = (math.sqrt(chi2 / (n * (k - 1)))
                     if n > 0 and k > 1 and chi2 > 0 else 0.0)

        # Mutual information (natural log) from the joint distribution.
        joint = reduced / n if reduced.size else np.zeros((1, 1))
        px = joint.sum(axis=1, keepdims=True)
        py = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(joint > 0, joint / (px * py), 1.0)
            mi = float(np.sum(np.where(joint > 0, joint * np.log(ratio), 0.0)))

        return ContingencyStatistics(n=n, chi2=float(chi2), p_value=float(p),
                                     dof=int(dof), cramers_v=float(cramers_v),
                                     mutual_information=max(mi, 0.0))

    # -- assess ----------------------------------------------------------------

    def assess_pmi(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pointwise mutual information of each observation's cell.

        Positive where the pair co-occurs more than independence predicts
        (e.g. high T with high OH inside a flame), negative where less.
        Cells never seen during learn score 0.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape != y.shape:
            raise ValueError("x and y must have equal size")
        n = self.n
        if n == 0:
            raise ValueError("assess requires a learned table")
        joint = self.counts / n
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        xi = np.clip(np.searchsorted(self.x_edges, x, side="right") - 1,
                     0, self.counts.shape[0] - 1)
        yi = np.clip(np.searchsorted(self.y_edges, y, side="right") - 1,
                     0, self.counts.shape[1] - 1)
        p_joint = joint[xi, yi]
        p_ind = px[xi] * py[yi]
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.where((p_joint > 0) & (p_ind > 0),
                           np.log(p_joint / p_ind), 0.0)
        return pmi


@dataclass(frozen=True)
class ContingencyStatistics:
    """Derived independence statistics."""

    n: int
    chi2: float
    p_value: float
    dof: int
    cramers_v: float
    mutual_information: float

    @property
    def independent_at_5pct(self) -> bool:
        return self.p_value >= 0.05


def global_edges(data: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin edges spanning a variable's global range.

    In the deployed system the edges come from the previous step's global
    min/max (already exchanged by the moment statistics), so learn stays
    single-pass.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    data = np.asarray(data, dtype=np.float64)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n_bins + 1)

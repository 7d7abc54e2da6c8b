"""Descriptive statistics: the four-stage parallel design of Fig. 4.

Implements the numerically stable, single-pass, parallel moment algorithms
of Bennett/Pébay/Roe/Thompson [21]–[23] (the VTK parallel statistics
toolkit the paper deploys):

* :class:`~repro.analysis.statistics.moments.MomentAccumulator` — per-rank
  centered aggregates (cardinality, min/max, M1..M4) with the pairwise
  update formulas, mergeable in any order;
* :mod:`~repro.analysis.statistics.stages` — the four canonical stages:
  **learn** (the only communicating stage), **derive** (moments ->
  mean/variance/skewness/kurtosis), **assess** (per-observation
  annotation), **test** (hypothesis test statistics);
* :class:`~repro.analysis.statistics.engine.StatisticsEngine` — the two
  deployments compared in the paper: fully in-situ (learn+derive with an
  all-to-all model exchange) and hybrid (learn in-situ, partial models
  shipped to a serial in-transit derive).
"""

from repro.analysis.statistics.moments import MomentAccumulator, merge_accumulators
from repro.analysis.statistics.stages import (
    DerivedStatistics,
    assess,
    derive,
    learn,
    test_mean_zscore,
)
from repro.analysis.statistics.engine import (
    HybridStatisticsResult,
    InSituStatisticsResult,
    StatisticsEngine,
)
from repro.analysis.statistics.autocorrelation import (
    AutocorrelationLearner,
    LagAccumulator,
    derive_autocorrelation,
    reference_autocorrelation,
)

__all__ = [
    "MomentAccumulator",
    "merge_accumulators",
    "DerivedStatistics",
    "learn",
    "derive",
    "assess",
    "test_mean_zscore",
    "StatisticsEngine",
    "InSituStatisticsResult",
    "HybridStatisticsResult",
    "AutocorrelationLearner",
    "LagAccumulator",
    "derive_autocorrelation",
    "reference_autocorrelation",
]

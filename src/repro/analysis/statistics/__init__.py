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

from repro._lazy import export_lazily

export_lazily(__name__, {
    "MomentAccumulator": "moments",
    "merge_accumulators": "moments",
    "DerivedStatistics": "stages",
    "learn": "stages",
    "derive": "stages",
    "assess": "stages",
    "test_mean_zscore": "stages",
    "StatisticsEngine": "engine",
    "InSituStatisticsResult": "engine",
    "HybridStatisticsResult": "engine",
    "AutocorrelationLearner": "autocorrelation",
    "LagAccumulator": "autocorrelation",
    "derive_autocorrelation": "autocorrelation",
    "reference_autocorrelation": "autocorrelation",
})

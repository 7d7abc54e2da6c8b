"""The hybrid in-situ/in-transit framework (the paper's contribution).

Two complementary entry points:

* :class:`~repro.core.framework.HybridFramework` — the *functional*
  pipeline: drives a real :class:`~repro.sim.s3d.DecomposedS3D` simulation,
  runs the real in-situ stages on every rank's block, moves intermediate
  results through DART/DataSpaces on the DES engine, and executes the real
  in-transit stages in staging buckets. Everything computes true values at
  laptop scale.
* :class:`~repro.core.runner.ScaledExperiment` — the *performance* replay:
  the same workflow at the paper's full scale (4896/9440 cores,
  1600x1372x430 grid), with computation and movement charged from the
  calibrated Jaguar cost model and played out on the DES. Regenerates
  Table I, Table II, and Fig. 6.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "AnalyticsTiming": "breakdown",
    "TimingBreakdown": "breakdown",
    "AnalyticsVariant": "workload",
    "ScaledWorkload": "workload",
    "ExperimentConfig": "runner",
    "ReplayPlan": "runner",
    "ScaledExperiment": "runner",
    "FrameworkResult": "framework",
    "HybridFramework": "framework",
    "StrategyOutcome": "tradeoff",
    "TradeoffModel": "tradeoff",
    "Campaign": "campaign",
    "ScalePoint": "campaign",
    "run_report": "report",
    "SteeringRule": "steering",
})

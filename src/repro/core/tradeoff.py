"""Trade-offs between in-situ, in-transit, and post-processing (§VI).

"We have plans to use the current system as a test bed to experiment
trade-offs between in-situ, in-transit, and post-processing algorithms."
This module implements that test bed on the calibrated machine model. It
quantifies the abstract's three headline claims for any analysis workload:

* **temporal resolution** — the stride at which analysis results exist;
* **I/O cost** — time added to the simulation's critical path for
  checkpointing vs in-situ stages + asynchronous movement;
* **time to insight** — latency from a timestep's data existing in memory
  to its analysis results being available.

Three strategies are compared:

* ``post-processing`` — checkpoint every S-th step to Lustre; read back
  and analyse after the run;
* ``concurrent hybrid`` — the paper's approach: in-situ filtering +
  asynchronous in-transit completion at every analysed step;
* ``fully in-situ`` — run the complete analysis on the simulation cores
  (bounded below by the in-situ rows of Table II for viz/stats; for
  topology the serial glue would also run on the critical path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runner import ScaledExperiment
from repro.core.workload import AnalyticsVariant


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's cost profile for a fixed-length run."""

    strategy: str
    #: Steps between successive analysed states.
    temporal_stride: int
    #: Seconds added to the simulation's critical path, per *simulation* step
    #: (amortised over the analysis stride).
    critical_path_per_step: float
    #: Seconds from a timestep's data existing to its results existing.
    time_to_insight: float
    #: Total extra bytes written to persistent storage per analysed step.
    storage_bytes: int
    #: The experiment's simulated step time — the denominator of
    #: :attr:`slowdown_percent`. Derived from the configuration's
    #: ``simulation_step_time()`` by the model, never hard-coded.
    sim_step_time: float

    @property
    def slowdown_percent(self) -> float:
        if self.sim_step_time <= 0:
            raise ValueError(
                f"sim_step_time must be > 0, got {self.sim_step_time}")
        return 100.0 * self.critical_path_per_step / self.sim_step_time


class TradeoffModel:
    """Compares analysis-delivery strategies on a ScaledExperiment."""

    def __init__(self, experiment: ScaledExperiment,
                 n_buckets: int | None = None) -> None:
        self.exp = experiment
        self.breakdown = experiment.breakdown()
        self.n_buckets = (n_buckets if n_buckets is not None
                          else experiment.config.n_intransit_cores)

    def _mk(self, strategy: str, stride: int, critical: float,
            insight: float, storage: int) -> StrategyOutcome:
        return StrategyOutcome(strategy=strategy, temporal_stride=stride,
                               critical_path_per_step=critical,
                               time_to_insight=insight,
                               storage_bytes=storage,
                               sim_step_time=self.breakdown.simulation_time)

    # -- strategies ----------------------------------------------------------

    def postprocessing(self, checkpoint_stride: int,
                       run_steps: int) -> StrategyOutcome:
        """Save raw state every ``checkpoint_stride`` steps; analyse after
        the run completes.

        Time to insight for the *first* saved step: the rest of the run
        must finish before post-processing starts, then its checkpoint is
        read and analysed. We report the run-average insight latency
        (half the run) + read + analysis.
        """
        if checkpoint_stride < 1 or run_steps < 1:
            raise ValueError("checkpoint_stride and run_steps must be >= 1")
        b = self.breakdown
        critical = b.io_write_time / checkpoint_stride
        # Serial post-processing of one snapshot: read + the in-transit-
        # equivalent computation for every analysis (statistics derive,
        # serial render, serial global merge tree) on the full raw data.
        analysis_time = b.io_read_time
        for v in (AnalyticsVariant.VIS_HYBRID, AnalyticsVariant.TOPO_HYBRID,
                  AnalyticsVariant.STATS_HYBRID):
            row = b.analytics[v.value]
            analysis_time += row.intransit_time + row.insitu_time
        mean_wait_for_run_end = run_steps / 2 * (b.simulation_time + critical)
        insight = mean_wait_for_run_end + analysis_time
        return self._mk("post-processing", checkpoint_stride, critical,
                        insight, b.data_bytes)

    def concurrent_hybrid(self, analysis_interval: int = 1) -> StrategyOutcome:
        """The paper's strategy: per analysed step, in-situ stages run on
        the critical path; movement and in-transit complete asynchronously
        (buckets permitting — checked against the multiplexing knee)."""
        if analysis_interval < 1:
            raise ValueError("analysis_interval must be >= 1")
        b = self.breakdown
        hybrid = [AnalyticsVariant.VIS_HYBRID, AnalyticsVariant.TOPO_HYBRID,
                  AnalyticsVariant.STATS_HYBRID]
        insitu = sum(b.analytics[v.value].insitu_time for v in hybrid)
        critical = insitu / analysis_interval
        insight = max(b.analytics[v.value].movement_time
                      + b.analytics[v.value].intransit_time for v in hybrid)
        # results only; raw state never touches disk
        storage = sum(b.analytics[v.value].movement_bytes for v in hybrid) // 100
        return self._mk("concurrent hybrid", analysis_interval, critical,
                        insight, storage)

    def fully_insitu(self, analysis_interval: int = 1) -> StrategyOutcome:
        """Everything on the simulation cores: the data-parallel analyses
        use their in-situ variants; topology's serial glue has no
        data-parallel formulation (§II) and lands on the critical path."""
        if analysis_interval < 1:
            raise ValueError("analysis_interval must be >= 1")
        b = self.breakdown
        critical = (b.analytics[AnalyticsVariant.VIS_INSITU.value].insitu_time
                    + b.analytics[AnalyticsVariant.STATS_INSITU.value].insitu_time
                    + b.analytics[AnalyticsVariant.TOPO_HYBRID.value].insitu_time
                    + b.analytics[AnalyticsVariant.TOPO_HYBRID.value].intransit_time)
        critical /= analysis_interval
        return self._mk("fully in-situ", analysis_interval, critical,
                        critical, 0)

    def sustainable(self, outcome: StrategyOutcome) -> bool:
        """Can the staging area absorb this cadence? (concurrent only)."""
        if outcome.strategy != "concurrent hybrid":
            return True
        b = self.breakdown
        topo = b.analytics[AnalyticsVariant.TOPO_HYBRID.value]
        task = topo.movement_time + topo.intransit_time
        cadence = outcome.temporal_stride * b.simulation_time
        return task <= cadence * self.n_buckets

"""Configuration sweeps over the full-scale experiment model.

The paper evaluates two core counts; the model generalises. A
:class:`Campaign` sweeps simulation scale (keeping the paper's grid and
per-axis decomposition style), sizes the staging area to the temporal-
multiplexing knee at each scale, and reports where the hybrid design's
assumptions hold — the scaling analysis §V sketches qualitatively
("Although in-transit computations for a given analysis and timestep are
serial, we note that this can easily be made parallel as well").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.runner import ExperimentConfig, PAPER_GLOBAL_SHAPE, ScaledExperiment
from repro.core.workload import AnalyticsVariant


@dataclass(frozen=True)
class ScalePoint:
    """One swept configuration's summary."""

    n_sim_cores: int
    simulation_time: float
    insitu_fraction: float         # all hybrid in-situ stages / sim step
    topo_intransit_time: float
    buckets_needed: int            # multiplexing knee for topology
    movement_mb_per_step: float
    io_fraction: float             # checkpoint write / sim step (if writing)


def _proc_grid_for(x_factor: int) -> tuple[int, int, int]:
    """The paper scales along x: 16 -> 32 at fixed (28, 10)."""
    return (x_factor, 28, 10)


class Campaign:
    """Sweep simulation scale on the modeled machine."""

    def __init__(self, x_factors: tuple[int, ...] = (8, 16, 32, 64)
                 ) -> None:
        for x in x_factors:
            if x < 1 or PAPER_GLOBAL_SHAPE[0] % x:
                raise ValueError(
                    f"x factor {x} must divide the grid extent "
                    f"{PAPER_GLOBAL_SHAPE[0]}")
        self.x_factors = tuple(x_factors)

    def point(self, x_factor: int) -> ScalePoint:
        cfg = ExperimentConfig(
            name=f"x{x_factor}",
            proc_grid=_proc_grid_for(x_factor),
            n_service_cores=256,
            n_intransit_cores=256,
        )
        exp = ScaledExperiment(cfg)
        b = exp.breakdown()
        hybrid = (AnalyticsVariant.VIS_HYBRID, AnalyticsVariant.TOPO_HYBRID,
                  AnalyticsVariant.STATS_HYBRID)
        insitu = sum(b.analytics[v.value].insitu_time for v in hybrid)
        topo = b.analytics[AnalyticsVariant.TOPO_HYBRID.value]
        task = topo.movement_time + topo.intransit_time
        moved = sum(b.analytics[v.value].movement_bytes for v in hybrid)
        return ScalePoint(
            n_sim_cores=cfg.n_sim_cores,
            simulation_time=b.simulation_time,
            insitu_fraction=insitu / b.simulation_time,
            topo_intransit_time=topo.intransit_time,
            buckets_needed=math.ceil(task / b.simulation_time),
            movement_mb_per_step=moved / 1024**2,
            io_fraction=b.io_write_time / b.simulation_time,
        )

    def sweep(self) -> list[ScalePoint]:
        return [self.point(x) for x in self.x_factors]

    # -- scaling diagnoses ----------------------------------------------------

    @staticmethod
    def strong_scaling_efficiency(points: list[ScalePoint]) -> list[float]:
        """Speedup / core-ratio relative to the first point (1.0 = ideal).

        The compute model is perfectly parallel, so deviations come only
        from rounding; the interesting outputs are the *analysis-side*
        trends below.
        """
        if not points:
            raise ValueError("no points")
        t0, c0 = points[0].simulation_time, points[0].n_sim_cores
        return [(t0 / p.simulation_time) / (p.n_sim_cores / c0)
                for p in points]

    @staticmethod
    def serial_stage_pressure(points: list[ScalePoint]) -> list[float]:
        """Buckets needed per point: the serial in-transit stage's cost is
        scale-independent while the simulation step shrinks — so the
        multiplexing demand grows ~linearly with core count, the pressure
        that motivates §V's 'can easily be made parallel as well'."""
        return [p.buckets_needed for p in points]

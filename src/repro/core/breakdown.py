"""Per-timestep timing breakdowns: the rows of Table II and bars of Fig. 6."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.units import bytes_to_mb


@dataclass(frozen=True)
class AnalyticsTiming:
    """One analytics variant's per-timestep costs (a Table II row).

    Frozen: :class:`~repro.core.runner.ScaledExperiment` hands the same
    instance to every caller.
    """

    name: str
    insitu_time: float = 0.0
    movement_time: float = 0.0
    movement_bytes: int = 0
    intransit_time: float = 0.0

    @property
    def movement_mb(self) -> float:
        return bytes_to_mb(self.movement_bytes)

    @property
    def simulation_impact(self) -> float:
        """Time the analysis adds to the simulation's critical path.

        In-situ compute blocks the simulation; asynchronous movement and
        in-transit compute do not (§V: "an asynchronous calculation
        performed outside of the simulation nodes").
        """
        return self.insitu_time

    def table_row(self) -> list[object]:
        return [
            self.name,
            round(self.insitu_time, 3) if self.insitu_time else "—",
            round(self.movement_time, 3) if self.movement_bytes else "—",
            round(self.movement_mb, 2) if self.movement_bytes else "—",
            round(self.intransit_time, 3) if self.intransit_time else "—",
        ]


@dataclass
class TimingBreakdown:
    """A full experiment's per-timestep timings (Table I + II + Fig. 6)."""

    n_cores: int
    n_sim_cores: int
    n_service_cores: int
    n_intransit_cores: int
    global_shape: tuple[int, int, int]
    n_vars: int
    data_bytes: int
    simulation_time: float
    io_read_time: float
    io_write_time: float
    analytics: dict[str, AnalyticsTiming] = field(default_factory=dict)

    @property
    def data_gb(self) -> float:
        return self.data_bytes / 1024**3

    def impact_fraction(self, analysis: str) -> float:
        """Fraction of a simulation step the analysis adds on-node."""
        return self.analytics[analysis].simulation_impact / self.simulation_time

    def fig6_series(self) -> dict[str, dict[str, float]]:
        """The Fig. 6 bar groups: {task: {in-situ, movement, in-transit}}."""
        out = {"simulation": {"in-situ": self.simulation_time,
                              "data movement": 0.0, "in-transit": 0.0}}
        for name, a in self.analytics.items():
            out[name] = {"in-situ": a.insitu_time,
                         "data movement": a.movement_time,
                         "in-transit": a.intransit_time}
        return out

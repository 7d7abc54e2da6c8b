"""Full-scale workload model: element counts and wire bytes per analysis.

Converts an experiment configuration (grid, decomposition, variables) into
the per-rank and aggregate quantities the cost model charges. Constants
that cannot be derived from first principles (topological feature density,
VTK partial-model wire overhead) are calibrated once against Table II and
documented inline.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from repro.vmpi.decomp import BlockDecomposition3D


class AnalyticsVariant(enum.Enum):
    """The five analytics deployments of Table II / Fig. 6."""

    VIS_INSITU = "in-situ visualization"
    STATS_INSITU = "in-situ descriptive statistics"
    VIS_HYBRID = "hybrid in-situ/in-transit visualization"
    TOPO_HYBRID = "hybrid in-situ/in-transit topology"
    STATS_HYBRID = "hybrid in-situ/in-transit descriptive statistics"


HYBRID_VARIANTS = (AnalyticsVariant.VIS_HYBRID, AnalyticsVariant.TOPO_HYBRID,
                   AnalyticsVariant.STATS_HYBRID)

#: Wire bytes per (rank, variable) of a serialized partial statistics
#: model. The minimal payload is 7 doubles (56 B); the VTK model tables
#: the paper ships carry names, cardinalities and layout metadata.
#: Calibrated from Table II: 13.30 MiB / (4480 ranks x 14 vars) ~ 223 B.
STATS_WIRE_BYTES_PER_VAR = 223

#: Fraction of boundary-face vertices that are boundary-restricted maxima
#: (the "topological ghost cells" each subtree retains), plus the volume
#: density of interior critical points, for combustion-like fields.
#: Calibrated so 4480 subtrees total ~87 MiB (Table II).
TOPO_BOUNDARY_MAX_DENSITY = 0.0222
TOPO_CRITICAL_DENSITY = 6.0e-4

#: Bytes per subtree node on the wire: (id, value) = 16 B for the node and
#: 16 B for its outgoing edge record.
TOPO_BYTES_PER_NODE = 32

#: Bytes per streamed element assumed by the in-transit glue-rate
#: calibration (Table II: 119.81 s over 87.02 MB).
TOPO_STREAM_ELEMENT_BYTES = 24


@dataclass(frozen=True)
class ScaledWorkload:
    """Per-analysis workload quantities for one experiment configuration.

    Frozen, so the derived geometry below is computed once per instance
    (``cached_property`` stores outside the dataclass fields: equality,
    hashing and ``replace`` see the fields only).
    """

    global_shape: tuple[int, int, int]
    proc_grid: tuple[int, int, int]
    n_vars: int = 14
    itemsize: int = 8
    downsample_stride: int = 8
    #: Variables shipped by the hybrid renderer (temperature + one species).
    n_render_vars: int = 2

    def __post_init__(self) -> None:
        # Validates divisibility/bounds as a side effect.
        BlockDecomposition3D(self.global_shape, self.proc_grid)
        if self.downsample_stride < 1:
            raise ValueError("downsample_stride must be >= 1")
        if not 1 <= self.n_render_vars <= self.n_vars:
            raise ValueError("n_render_vars must be in [1, n_vars]")

    # -- geometry ------------------------------------------------------------

    @cached_property
    def n_ranks(self) -> int:
        px, py, pz = self.proc_grid
        return px * py * pz

    @cached_property
    def block_shape(self) -> tuple[int, int, int]:
        return tuple(n // p for n, p in zip(self.global_shape, self.proc_grid))  # type: ignore[return-value]

    @cached_property
    def block_cells(self) -> int:
        sx, sy, sz = self.block_shape
        return sx * sy * sz

    @property
    def total_cells(self) -> int:
        nx, ny, nz = self.global_shape
        return nx * ny * nz

    @property
    def checkpoint_bytes(self) -> int:
        """Table I's "Data size": all variables, double precision."""
        return self.total_cells * self.n_vars * self.itemsize

    @cached_property
    def block_surface_vertices(self) -> int:
        sx, sy, sz = self.block_shape
        return 2 * (sx * sy + sy * sz + sx * sz)

    @cached_property
    def downsampled_block_cells(self) -> int:
        return math.prod(math.ceil(s / self.downsample_stride)
                         for s in self.block_shape)

    @cached_property
    def topo_nodes_per_rank(self) -> int:
        """Subtree size: interior criticals + boundary-restricted maxima +
        the 8 sub-domain corners (§III's ghost-cell-equivalent set)."""
        return int(self.block_surface_vertices * TOPO_BOUNDARY_MAX_DENSITY
                   + self.block_cells * TOPO_CRITICAL_DENSITY) + 8

    # -- per-variant quantities ------------------------------------------------

    def insitu_op(self, variant: AnalyticsVariant) -> tuple[str, int]:
        """(cost-model op, per-rank elements) of the in-situ stage."""
        if variant is AnalyticsVariant.VIS_INSITU:
            return ("vis.render_insitu", self.block_cells)
        if variant is AnalyticsVariant.STATS_INSITU:
            return ("stats.learn", self.n_vars * self.block_cells)
        if variant is AnalyticsVariant.VIS_HYBRID:
            return ("vis.downsample", self.n_render_vars * self.block_cells)
        if variant is AnalyticsVariant.TOPO_HYBRID:
            return ("topo.subtree", self.block_cells)
        if variant is AnalyticsVariant.STATS_HYBRID:
            return ("stats.learn", self.n_vars * self.block_cells)
        raise ValueError(f"unknown variant {variant}")

    def movement_bytes_per_rank(self, variant: AnalyticsVariant) -> int:
        """Wire size of one rank's intermediate result (hybrid variants)."""
        if variant is AnalyticsVariant.VIS_HYBRID:
            return (self.downsampled_block_cells * self.n_render_vars
                    * self.itemsize)
        if variant is AnalyticsVariant.TOPO_HYBRID:
            return self.topo_nodes_per_rank * TOPO_BYTES_PER_NODE
        if variant is AnalyticsVariant.STATS_HYBRID:
            return self.n_vars * STATS_WIRE_BYTES_PER_VAR
        return 0

    def movement_bytes_total(self, variant: AnalyticsVariant) -> int:
        return self.n_ranks * self.movement_bytes_per_rank(variant)

    def intransit_op(self, variant: AnalyticsVariant) -> tuple[str, int] | None:
        """(cost-model op, total elements) of the serial in-transit stage."""
        if variant is AnalyticsVariant.VIS_HYBRID:
            n = self.movement_bytes_total(variant) // self.itemsize
            return ("vis.render_intransit", n)
        if variant is AnalyticsVariant.TOPO_HYBRID:
            n = self.movement_bytes_total(variant) // TOPO_STREAM_ELEMENT_BYTES
            return ("topo.stream_glue", n)
        if variant is AnalyticsVariant.STATS_HYBRID:
            return ("stats.derive", self.n_vars)
        return None

    def movement_pack_op(self, variant: AnalyticsVariant) -> tuple[str, int] | None:
        """Serialization charged to data movement (topology subtrees are
        structure-heavy to pack/unpack; dense buffers are free)."""
        if variant is AnalyticsVariant.TOPO_HYBRID:
            n = self.movement_bytes_total(variant) // TOPO_STREAM_ELEMENT_BYTES
            return ("topo.pack_stream", n)
        return None

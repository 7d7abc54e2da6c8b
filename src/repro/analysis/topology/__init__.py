"""Merge-tree topology: the paper's hardest, non-data-parallel analysis.

The hybrid formulation of §III:

* **in-situ** (:mod:`~repro.analysis.topology.local_tree`): each rank
  computes the merge tree of its block with a low-overhead sort +
  union-find algorithm [32], then reduces it to a *boundary tree*
  retaining all critical vertices plus every boundary vertex — the
  "topological ghost cells" needed so neighbouring subtrees glue
  correctly [47];
* **in-transit** (:mod:`~repro.analysis.topology.stream_merge`): a single
  serial process aggregates subtrees with a streaming algorithm [43] that
  accepts vertices and edges in any order, maintains the merge tree of
  everything seen so far, and *finalizes* vertices once their last
  incident edge arrives to keep the memory footprint low.

Supporting tools: persistence simplification
(:mod:`~repro.analysis.topology.simplify`), threshold segmentation
(:mod:`~repro.analysis.topology.segmentation`, Fig. 3), and overlap-based
feature tracking (:mod:`~repro.analysis.topology.tracking`, Fig. 1).

Convention: *maximum-based* merge trees (split trees): the isovalue sweeps
from +inf downward, leaves are local maxima, and arcs merge at saddles.
Ties are broken by vertex id (simulation of simplicity), so every tree is
deterministic.
"""

from repro.analysis.topology.merge_tree import (
    DisjointSet,
    MergeTree,
    compute_merge_tree,
    sweep_order,
)
from repro.analysis.topology.local_tree import BoundaryTree, compute_boundary_tree
from repro.analysis.topology.stream_merge import StreamingGlue
from repro.analysis.topology.distributed import (
    block_boundary_mask,
    cross_block_edges,
    distributed_merge_tree,
)
from repro.analysis.topology.simplify import persistence_pairs, simplify
from repro.analysis.topology.segmentation import segment_superlevel
from repro.analysis.topology.tracking import FeatureTrack, overlap_matrix, track_features

__all__ = [
    "DisjointSet",
    "MergeTree",
    "compute_merge_tree",
    "sweep_order",
    "BoundaryTree",
    "compute_boundary_tree",
    "StreamingGlue",
    "block_boundary_mask",
    "cross_block_edges",
    "distributed_merge_tree",
    "persistence_pairs",
    "simplify",
    "segment_superlevel",
    "FeatureTrack",
    "overlap_matrix",
    "track_features",
]

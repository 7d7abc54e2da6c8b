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

from repro._lazy import export_lazily

export_lazily(__name__, {
    "DisjointSet": "merge_tree",
    "MergeTree": "merge_tree",
    "compute_merge_tree": "merge_tree",
    "sweep_order": "merge_tree",
    "BoundaryTree": "local_tree",
    "compute_boundary_tree": "local_tree",
    "StreamingGlue": "stream_merge",
    "block_boundary_mask": "distributed",
    "cross_block_edges": "distributed",
    "distributed_merge_tree": "distributed",
    "persistence_pairs": "simplify",
    "simplify": "simplify",
    "segment_superlevel": "segmentation",
    "FeatureTrack": "tracking",
    "overlap_matrix": "tracking",
    "track_features": "tracking",
})

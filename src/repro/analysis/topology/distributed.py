"""Distributed merge-tree orchestration: blocks -> boundary trees -> glue.

This module supplies the geometry plumbing between the in-situ and
in-transit stages:

* :func:`block_boundary_mask` — which vertices of a block lie on faces
  shared with neighbouring blocks (the retained "topological ghost cells");
* :func:`cross_block_edges` — the grid adjacencies straddling block
  boundaries, which the glue stage adds to stitch subtrees together;
* :func:`distributed_merge_tree` — the full pipeline on an in-memory
  global field, used by tests, examples, and the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.topology.local_tree import BoundaryTree, compute_boundary_trees
from repro.analysis.topology.merge_tree import MergeTree
from repro.analysis.topology.stream_merge import StreamingGlue
from repro.backend import kernel
from repro.vmpi.decomp import Block3D, BlockDecomposition3D


def global_id_array(shape: tuple[int, int, int]) -> np.ndarray:
    """Global vertex ids: C-order linear indices of the global grid."""
    return np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)


def block_boundary_mask(block: Block3D, global_shape: tuple[int, int, int]
                        ) -> np.ndarray:
    """True on faces the block shares with a neighbouring block.

    Faces on the *domain* boundary are not marked (no neighbour to glue
    to) — only inter-block faces carry ghost-equivalent vertices.
    """
    mask = np.zeros(block.shape, dtype=bool)
    for axis in range(3):
        if block.lo[axis] > 0:
            sl = [slice(None)] * 3
            sl[axis] = slice(0, 1)
            mask[tuple(sl)] = True
        if block.hi[axis] < global_shape[axis]:
            sl = [slice(None)] * 3
            sl[axis] = slice(block.shape[axis] - 1, block.shape[axis])
            mask[tuple(sl)] = True
    return mask


def cross_block_edges(decomp: BlockDecomposition3D) -> list[tuple[int, int]]:
    """Grid adjacencies (6-connectivity) whose endpoints lie in different
    blocks, as global-id pairs. Each edge is emitted once."""
    ids = global_id_array(decomp.global_shape)
    edges: list[tuple[int, int]] = []
    for axis in range(3):
        # Internal block interfaces along this axis occur at the block
        # start coordinates (excluding the domain edge at 0).
        starts = sorted({b.lo[axis] for b in decomp.blocks()} - {0})
        for cut in starts:
            lo_sl = [slice(None)] * 3
            hi_sl = [slice(None)] * 3
            lo_sl[axis] = slice(cut - 1, cut)
            hi_sl[axis] = slice(cut, cut + 1)
            a = ids[tuple(lo_sl)].ravel()
            b = ids[tuple(hi_sl)].ravel()
            edges.extend(zip(a.tolist(), b.tolist()))
    return edges


def compute_block_boundary_trees(global_field: np.ndarray,
                                 decomp: BlockDecomposition3D
                                 ) -> list[BoundaryTree]:
    """The in-situ stage for every rank (functional layer)."""
    field = np.asarray(global_field, dtype=np.float64)
    if field.shape != decomp.global_shape:
        raise ValueError(
            f"field shape {field.shape} != decomposition {decomp.global_shape}")
    ids = global_id_array(decomp.global_shape)
    blocks = decomp.blocks()
    return compute_boundary_trees(
        [field[b.slices] for b in blocks], [ids[b.slices] for b in blocks],
        [block_boundary_mask(b, decomp.global_shape) for b in blocks])


def _stream_glue(boundary_trees: list[BoundaryTree],
                 cross_edges: list[tuple[int, int]],
                 glue: StreamingGlue) -> MergeTree:
    """Stream all subtree elements, then the cross edges, into ``glue``."""
    # Pre-count incident edges so the glue can track finalization.
    incident: dict[int, int] = {}
    for bt in boundary_trees:
        for hi, lo in bt.edges:
            incident[hi] = incident.get(hi, 0) + 1
            incident[lo] = incident.get(lo, 0) + 1
    for u, v in cross_edges:
        incident[u] = incident.get(u, 0) + 1
        incident[v] = incident.get(v, 0) + 1

    for bt in boundary_trees:
        for vid, val in bt.nodes.items():
            glue.add_vertex(vid, val, n_incident_edges=incident.get(vid, 0))
        for hi, lo in bt.edges:
            glue.add_edge(hi, lo)
    for u, v in cross_edges:
        glue.add_edge(u, v)
    return glue.finalize()


@kernel("topology.glue_batch")
def _glue_batch(boundary_trees: list[BoundaryTree],
                cross_edges: list[tuple[int, int]]) -> MergeTree:
    """Glue kernel used when the caller does not need streaming-side
    accounting (finalization counts, live-vertex high-water mark).

    The reference body streams through a fresh :class:`StreamingGlue`;
    the numpy backend builds the same augmented tree with one batch
    union-find sweep over the combined vertex/edge set — the augmented
    merge tree is unique given the (value, id) total order, so the
    outputs are identical node-for-node and arc-for-arc.
    """
    return _stream_glue(boundary_trees, cross_edges, StreamingGlue())


def glue_boundary_trees(boundary_trees: list[BoundaryTree],
                        cross_edges: list[tuple[int, int]],
                        glue: StreamingGlue | None = None) -> MergeTree:
    """The in-transit stage: stream all subtree elements, then the cross
    edges, into a single glue process and return the global tree.

    Passing an explicit ``glue`` pins the streaming implementation (its
    finalization/live-vertex accounting is part of the result); with the
    default ``None`` the work dispatches through the ``topology.glue_batch``
    backend kernel.
    """
    if glue is not None:
        return _stream_glue(boundary_trees, cross_edges, glue)
    return _glue_batch(boundary_trees, cross_edges)


def distributed_merge_tree(global_field: np.ndarray,
                           decomp: BlockDecomposition3D
                           ) -> tuple[MergeTree, list[BoundaryTree]]:
    """Full hybrid pipeline on an in-memory field.

    Returns the glued global tree (augmented over retained vertices; call
    ``.reduced()`` for critical structure) and the per-rank boundary trees
    (whose ``nbytes`` are the "data movement size" of Table II).
    """
    boundary_trees = compute_block_boundary_trees(global_field, decomp)
    tree = glue_boundary_trees(boundary_trees, cross_block_edges(decomp))
    return tree, boundary_trees

"""The in-situ stage: boundary trees (subtrees with topological ghost cells).

Each rank computes the merge tree of its block with the batch algorithm,
then reduces it to the *boundary tree*: the smallest structure a remote
glue stage needs to reconstruct global topology. Per [47] (and §III's
"boundary components that are the topological equivalent of simulation
ghost-cells") the retained vertex set is

* every critical vertex of the local tree (leaves, saddles, roots), and
* every vertex on the block's boundary faces.

Interior regular vertices are contracted away: along a monotone arc the
superlevel connectivity between retained vertices is fully described by
the chain of retained vertices in sweep order, so contraction loses
nothing (tested against the global tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.topology.merge_tree import MergeTree, compute_merge_trees


@dataclass
class BoundaryTree:
    """A reduced subtree: what one rank ships to the in-transit glue.

    ``edges`` are (higher, lower) pairs in sweep order; ``boundary_ids``
    are the retained boundary vertices (the glue attaches cross-block
    edges to these).
    """

    nodes: dict[int, float]
    edges: list[tuple[int, int]]
    boundary_ids: list[int]
    n_block_cells: int = 0

    @property
    def nbytes(self) -> int:
        """Wire size: (id, value) per node + 2 ids per edge, 8 B each."""
        return 16 * len(self.nodes) + 16 * len(self.edges)

    def validate(self) -> None:
        for hi, lo in self.edges:
            if hi not in self.nodes or lo not in self.nodes:
                raise AssertionError(f"edge ({hi},{lo}) references missing node")
            if (self.nodes[hi], hi) <= (self.nodes[lo], lo):
                raise AssertionError(f"edge ({hi},{lo}) not descending")
        for b in self.boundary_ids:
            if b not in self.nodes:
                raise AssertionError(f"boundary vertex {b} not retained")


def compute_boundary_tree(block_values: np.ndarray, id_map: np.ndarray,
                          boundary_mask: np.ndarray) -> BoundaryTree:
    """Compute the boundary tree of one block.

    ``block_values``: the rank's scalar sub-brick. ``id_map``: global
    vertex ids, same shape. ``boundary_mask``: True where the vertex lies
    on a face shared with another block (see
    :func:`~repro.analysis.topology.distributed.block_boundary_mask`).
    """
    return compute_boundary_trees([block_values], [id_map],
                                  [boundary_mask])[0]


def compute_boundary_trees(blocks: list[np.ndarray],
                           id_maps: list[np.ndarray],
                           boundary_masks: list[np.ndarray]
                           ) -> list[BoundaryTree]:
    """:func:`compute_boundary_tree` of every rank's block: the merge
    trees come from one :func:`compute_merge_trees` call, which a backend
    may run over the stacked blocks, and each is then reduced alone."""
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    for block, id_map, mask in zip(blocks, id_maps, boundary_masks):
        if id_map.shape != block.shape or mask.shape != block.shape:
            raise ValueError(
                "block_values, id_map and boundary_mask shapes must match")
    merged = compute_merge_trees(blocks, id_maps)
    return [_reduce_to_boundary(tree, vertex_arc, block, id_map, mask)
            for (tree, vertex_arc), block, id_map, mask
            in zip(merged, blocks, id_maps, boundary_masks)]


def _reduce_to_boundary(tree: MergeTree, vertex_arc: np.ndarray,
                        block_values: np.ndarray, id_map: np.ndarray,
                        boundary_mask: np.ndarray) -> BoundaryTree:
    """Contract a block's merge tree to its critical and boundary
    vertices."""
    flat_vals = block_values.ravel()
    flat_ids = np.asarray(id_map).ravel()
    flat_arc = np.asarray(vertex_arc).ravel()
    flat_boundary = np.asarray(boundary_mask).ravel()

    # A vertex is a node of the local tree exactly when it heads its own
    # arc; everything else kept is a regular vertex on some node's arc.
    critical = flat_arc == flat_ids
    retained = np.flatnonzero(critical | flat_boundary)
    ids = flat_ids[retained]
    vals = flat_vals[retained]
    arc = flat_arc[retained]
    arc_vals = np.fromiter(map(tree.value.__getitem__, arc.tolist()),
                           dtype=np.float64, count=arc.size)
    # Arcs in sweep order of their upper node (the order the tree's nodes
    # were added in); along an arc, descending (value, id) from the upper
    # node — it sorts first, being the highest vertex of its own arc —
    # through the retained regulars towards the node's parent.
    chain = np.lexsort((ids, vals, arc, arc_vals))[::-1]
    hi = ids[chain]
    lo = np.empty_like(hi)
    lo[:-1] = hi[1:]
    upper = arc[chain]
    ends = np.flatnonzero(np.append(upper[1:] != upper[:-1], True))
    parents = [tree.parent[node] for node in upper[ends].tolist()]
    keep = np.ones(hi.size, dtype=bool)
    keep[ends] = [p is not None for p in parents]
    lo[ends] = [0 if p is None else p for p in parents]

    return BoundaryTree(
        nodes=dict(zip(ids.tolist(), vals.tolist())),
        edges=list(zip(hi[keep].tolist(), lo[keep].tolist())),
        boundary_ids=np.sort(flat_ids[flat_boundary]).tolist(),
        n_block_cells=int(block_values.size))

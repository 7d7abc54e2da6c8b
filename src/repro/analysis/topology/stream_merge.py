"""The in-transit stage: streaming merge-tree aggregation [43].

A single serial process receives subtree elements (vertices, then edges,
in any order subject to "a vertex must be processed before any edge that
contains it") and maintains the merge tree of everything seen so far via
chain-merge edge insertion. A vertex is *finalized* once its last incident
edge has been processed; finalized counts drive the low-memory-footprint
accounting the paper relies on (§III: finalized elements are written out
and dropped from working memory).

The resulting tree is *augmented*: every streamed vertex is a node, with
regular vertices forming chains along arcs. Use
:meth:`~repro.analysis.topology.merge_tree.MergeTree.reduced` to obtain
the critical structure.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.topology.merge_tree import (
    MergeTree,
    _edge_positions,
    _graph_tree,
    reject_nan,
)
from repro.backend import kernel


class StreamingGlue:
    """Incremental merge tree over streamed vertices and edges."""

    def __init__(self) -> None:
        self._value: dict[int, float] = {}
        self._parent: dict[int, int | None] = {}
        #: Declared incident-edge budget per vertex (None = undeclared).
        self._remaining_edges: dict[int, int | None] = {}
        self.n_edges = 0
        self.finalized: set[int] = set()
        #: High-water mark of simultaneously unfinalized vertices.
        self.peak_live_vertices = 0
        self._live = 0

    # -- streaming input ----------------------------------------------------------

    def add_vertex(self, vertex_id: int, value: float,
                   n_incident_edges: int | None = None) -> None:
        """Declare a vertex (must precede any edge naming it)."""
        vid = int(vertex_id)
        if vid in self._value:
            raise ValueError(f"vertex {vid} already streamed")
        if n_incident_edges is not None and n_incident_edges < 0:
            raise ValueError("n_incident_edges must be >= 0")
        self._value[vid] = float(value)
        self._parent[vid] = None
        self._remaining_edges[vid] = n_incident_edges
        if n_incident_edges == 0:
            self.finalized.add(vid)
        else:
            self._live += 1
            self.peak_live_vertices = max(self.peak_live_vertices, self._live)

    def _higher(self, a: int, b: int) -> bool:
        return (self._value[a], a) > (self._value[b], b)

    def add_edge(self, u: int, v: int) -> None:
        """Insert an edge; merges the two descending root-paths.

        This is the chain-merge at the core of streaming merge-tree
        maintenance: the sorted (by sweep order) paths from ``u`` and ``v``
        to their roots are interleaved so that every node's parent becomes
        the next lower node of the combined component.
        """
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-edge on vertex {u}")
        for x in (u, v):
            if x not in self._value:
                raise KeyError(
                    f"edge ({u},{v}) streamed before vertex {x} was declared")
        self.n_edges += 1
        self._consume_edge_budget(u)
        self._consume_edge_budget(v)

        parent = self._parent
        while u != v:
            if self._higher(v, u):
                u, v = v, u  # keep u the higher endpoint
            w = parent[u]
            if w is None:
                parent[u] = v
                u = v
            elif w == v:
                return
            elif self._higher(v, w):
                # v slots in between u and w; continue merging v's chain with w.
                parent[u] = v
                u, v = v, w
            else:
                u = w

    def _consume_edge_budget(self, vid: int) -> None:
        budget = self._remaining_edges[vid]
        if budget is None:
            return
        if budget == 0:
            raise RuntimeError(
                f"vertex {vid} received more edges than its declared budget")
        budget -= 1
        self._remaining_edges[vid] = budget
        if budget == 0:
            self.finalized.add(vid)
            self._live -= 1

    # -- output ------------------------------------------------------------------

    def all_finalized(self) -> bool:
        """True when every declared edge budget has been consumed."""
        return all(b in (None, 0) for b in self._remaining_edges.values())

    def finalize(self) -> MergeTree:
        """Return the merge tree of everything streamed so far."""
        tree = MergeTree()
        for vid, val in self._value.items():
            tree.add_node(vid, val)
        for vid, par in self._parent.items():
            if par is not None:
                tree.set_parent(vid, par)
        return tree


def _graph_merge_tree_reference(values: dict[int, float],
                                edges: list[tuple[int, int]]) -> MergeTree:
    """:func:`compute_merge_tree_graph`'s oracle: the union-find sweep
    over python dicts and lists."""
    if not values:
        raise ValueError("cannot compute the merge tree of an empty graph")
    ids = sorted(values)
    reject_nan(np.array([values[vid] for vid in ids], dtype=np.float64),
               lambda i: f"value of vertex {ids[i]}")
    index = {vid: i for i, vid in enumerate(ids)}
    adjacency: dict[int, list[int]] = {vid: [] for vid in ids}
    for u, v in edges:
        if u not in values or v not in values:
            raise KeyError(f"edge ({u},{v}) references unknown vertex")
        adjacency[u].append(v)
        adjacency[v].append(u)

    order = sorted(ids, key=lambda vid: (values[vid], vid), reverse=True)
    parent_uf = list(range(len(ids)))

    def find(x: int) -> int:
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        return x

    tree = MergeTree()
    processed: set[int] = set()
    latest: dict[int, int] = {}  # uf-root -> most recent vertex in component
    for vid in order:
        tree.add_node(vid, values[vid])
        roots = []
        for nb in adjacency[vid]:
            if nb in processed:
                r = find(index[nb])
                if r not in roots:
                    roots.append(r)
        processed.add(vid)
        me = index[vid]
        for r in roots:
            tree.set_parent(latest[r], vid)
            parent_uf[r] = me
        latest[find(me)] = vid
    return tree


@kernel("topology.graph_merge_tree", reference=_graph_merge_tree_reference)
def compute_merge_tree_graph(values: dict[int, float],
                             edges: list[tuple[int, int]]) -> MergeTree:
    """Batch augmented merge tree of an arbitrary graph.

    Sweeps vertices in descending (value, id) order with union-find; every
    vertex becomes a node (chains included), matching
    :class:`StreamingGlue`'s augmented output. Used to verify the
    streaming algorithm and as an independent oracle in tests. NaN values
    are rejected, as in the grid kernel. The sweep order and the
    adjacency (earlier-swept neighbours only) are built in array form,
    then the sweep core runs; an edge naming an unknown vertex re-runs
    the reference, whose ``KeyError`` names the first offender.
    """
    if not values:
        raise ValueError("cannot compute the merge tree of an empty graph")
    ids = np.array(sorted(values), dtype=np.int64)
    vals = np.array([values[vid] for vid in ids.tolist()], dtype=np.float64)
    reject_nan(vals, lambda i: f"value of vertex {ids[i]}")
    edge_pos = _edge_positions(
        ids, np.asarray(edges, dtype=np.int64).reshape(len(edges), 2))
    if edge_pos is None:
        return _graph_merge_tree_reference(values, edges)
    return _graph_tree(ids, vals, edge_pos)

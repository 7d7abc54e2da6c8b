"""Merge-tree data structure and the batch sort + union-find algorithm [32].

A (maximum-based) merge tree records how superlevel-set components appear
at local maxima and merge at saddles as the isovalue sweeps downward.
Nodes are *vertices of the input* (identified by integer ids); arcs point
from each node to its parent at lower function value.

The total order used everywhere is ``(value, id)`` descending — ties are
broken by id ("simulation of simplicity"), making results deterministic
and consistent across blocks of a distributed computation.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.backend import kernel


class DisjointSet:
    """Array-based union-find with path halving and union by explicit root."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def union_into(self, child_root: int, parent_root: int) -> None:
        """Attach ``child_root``'s set under ``parent_root`` (caller passes roots)."""
        self._parent[child_root] = parent_root


def _higher(value_a: float, id_a: int, value_b: float, id_b: int) -> bool:
    """True if (value_a, id_a) is greater in the sweep's total order."""
    return (value_a, id_a) > (value_b, id_b)


def sweep_order(values: np.ndarray) -> np.ndarray:
    """Indices of ``values`` sorted by (value, index) descending."""
    v = np.asarray(values).ravel()
    idx = np.arange(v.size)
    return np.lexsort((idx, v))[::-1]


class MergeTree:
    """Nodes with values and parent pointers toward lower function values.

    Supports trees that contain *regular* chain nodes (exactly one child)
    — these appear in boundary trees and glued trees — plus
    :meth:`reduced` to contract them away for critical-structure
    comparisons.
    """

    def __init__(self) -> None:
        self.value: dict[int, float] = {}
        self.parent: dict[int, int | None] = {}
        self._children: dict[int, list[int]] = {}

    # -- construction -----------------------------------------------------------

    def add_node(self, node_id: int, value: float) -> None:
        if node_id in self.value:
            raise ValueError(f"node {node_id} already in tree")
        self.value[node_id] = float(value)
        self.parent[node_id] = None
        self._children[node_id] = []

    def set_parent(self, child: int, parent: int) -> None:
        if child not in self.value or parent not in self.value:
            raise KeyError(f"both {child} and {parent} must be nodes")
        if child == parent:
            raise ValueError(f"node {child} cannot parent itself")
        if not _higher(self.value[child], child, self.value[parent], parent):
            raise ValueError(
                f"parent {parent} (f={self.value[parent]}) must be lower than "
                f"child {child} (f={self.value[child]}) in the sweep order")
        old = self.parent[child]
        if old is not None:
            self._children[old].remove(child)
        self.parent[child] = parent
        self._children[parent].append(child)

    @classmethod
    def from_arrays(cls, ids: np.ndarray, values: np.ndarray,
                    child: np.ndarray, parent: np.ndarray) -> "MergeTree":
        """Tree with node ``ids[k]`` at ``values[k]`` for every ``k`` and
        an arc ``ids[child[j]] -> ids[parent[j]]`` for every ``j``.

        The result, and any exception, are those of :meth:`add_node` for
        each node in order followed by :meth:`set_parent` for each arc in
        order; the invariants (unique ids, one parent per child, no
        self-parent, strictly descending ``(value, id)``) are checked
        once over the arrays, and only a violation runs the per-call
        path, which raises at the first offender.
        """
        ids = np.asarray(ids)
        values = np.asarray(values, dtype=np.float64)
        child = np.asarray(child, dtype=np.int64)
        parent = np.asarray(parent, dtype=np.int64)
        id_list = ids.tolist()
        tree = cls()
        tree.value = dict(zip(id_list, values.tolist()))
        child_value, parent_value = values[child], values[parent]
        descending = (child_value > parent_value) | (
            (child_value == parent_value) & (ids[child] > ids[parent]))
        if (len(tree.value) != len(id_list) or not descending.all()
                or (np.bincount(child, minlength=1) > 1).any()):
            tree = cls()
            for node_id, value in zip(id_list, values.tolist()):
                tree.add_node(node_id, value)
            for c, p in zip(child.tolist(), parent.tolist()):
                tree.set_parent(id_list[c], id_list[p])
            return tree
        children: list[list[int]] = [[] for _ in id_list]
        parents: list[int | None] = [None] * len(id_list)
        for c, p in zip(child.tolist(), parent.tolist()):
            parents[c] = id_list[p]
            children[p].append(id_list[c])
        tree.parent = dict(zip(id_list, parents))
        tree._children = dict(zip(id_list, children))
        return tree

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.value)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.value

    def children(self, node_id: int) -> list[int]:
        return list(self._children[node_id])

    def roots(self) -> list[int]:
        """Nodes without parents (one per connected component)."""
        return sorted(n for n, p in self.parent.items() if p is None)

    def leaves(self) -> list[int]:
        """Local maxima: nodes without children."""
        return sorted(n for n, c in self._children.items() if not c)

    def saddles(self) -> list[int]:
        """Merge nodes: nodes with two or more children."""
        return sorted(n for n, c in self._children.items() if len(c) >= 2)

    def arcs(self) -> list[tuple[int, int]]:
        """All (child, parent) arcs, sorted for determinism."""
        return sorted((c, p) for c, p in self.parent.items() if p is not None)

    def is_regular(self, node_id: int) -> bool:
        """A chain node: exactly one child and a parent."""
        return (len(self._children[node_id]) == 1
                and self.parent[node_id] is not None)

    def validate(self) -> None:
        """Check structural invariants; raises on violation.

        * parent values strictly lower in the sweep order;
        * no cycles (every walk to a root terminates).
        """
        for child, parent in self.parent.items():
            if parent is None:
                continue
            if not _higher(self.value[child], child, self.value[parent], parent):
                raise AssertionError(f"arc {child}->{parent} not descending")
        for start in self.value:
            seen = set()
            node: int | None = start
            while node is not None:
                if node in seen:
                    raise AssertionError(f"cycle through node {node}")
                seen.add(node)
                node = self.parent[node]

    # -- transforms ----------------------------------------------------------------

    def reduced(self) -> "MergeTree":
        """Copy with regular chain nodes contracted and dangling root
        chains dropped.

        The result contains exactly the critical structure: leaves and
        saddles (each component's root becomes its lowest saddle, or its
        single maximum). Comparing two reduced trees compares merge
        topology irrespective of retained regular vertices — an augmented
        tree (every vertex a node) and a critical-only tree of the same
        function reduce identically.
        """
        keep = {n for n in self.value if not self.is_regular(n)}
        out = MergeTree()
        for n in keep:
            out.add_node(n, self.value[n])
        for n in keep:
            p = self.parent[n]
            while p is not None and p not in keep:
                p = self.parent[p]
            if p is not None:
                out.set_parent(n, p)
        # Drop root chains: a root with exactly one child is a regular
        # vertex below the component's lowest saddle.
        changed = True
        while changed:
            changed = False
            for root in out.roots():
                kids = out._children[root]
                if len(kids) == 1:
                    child = kids[0]
                    out._children[root] = []
                    out.parent[child] = None
                    del out.value[root]
                    del out.parent[root]
                    del out._children[root]
                    changed = True
        return out

    def signature(self) -> tuple:
        """Hashable summary of critical structure (for equality tests)."""
        red = self.reduced()
        return (tuple(sorted(red.value.items())), tuple(red.arcs()))

    def deepest_at_or_above(self, node_id: int, threshold: float) -> int:
        """Walk down from ``node_id`` to the lowest node with value >= threshold.

        This is the representative of ``node_id``'s superlevel component at
        ``threshold`` (used by segmentation).
        """
        node = node_id
        if self.value[node] < threshold:
            raise ValueError(
                f"node {node_id} (f={self.value[node]}) is below {threshold}")
        while True:
            p = self.parent[node]
            if p is None or self.value[p] < threshold:
                return node
            node = p


def reject_nan(values: np.ndarray, describe) -> None:
    """Raise if any of ``values`` is NaN, naming the first through
    ``describe(position)``: NaN has no place in the ``(value, id)`` sweep
    order (``lexsort`` and tuple comparison even disagree on where it
    goes), so every merge-tree kernel refuses it up front."""
    nan = np.isnan(values)
    if nan.any():
        raise ValueError(
            f"{describe(int(np.argmax(nan)))} is NaN: the (value, id) sweep "
            "order is undefined")


def checked_field(field: np.ndarray, id_map: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`compute_merge_tree`'s input contract, for every backend:
    the flat float64 values and the flat vertex ids (flat local indices
    without an ``id_map``), or the exception for what it refuses."""
    values = np.asarray(field, dtype=np.float64).ravel()
    n = values.size
    if n == 0:
        raise ValueError("cannot compute the merge tree of an empty field")
    reject_nan(values, "field value at flat index {}".format)
    if id_map is None:
        return values, np.arange(n, dtype=np.int64)
    ids = np.asarray(id_map).ravel()
    if ids.size != n:
        raise ValueError(f"id_map size {ids.size} != field size {n}")
    ascending = np.sort(ids)
    if (ascending[1:] == ascending[:-1]).any():
        raise ValueError("id_map must assign distinct ids")
    return values, ids


def _iter_grid_neighbors(flat_index: int, shape: tuple[int, ...],
                         strides: list[int]) -> Iterable[int]:
    """Face neighbours with bounds checks (non-periodic)."""
    rem = flat_index
    coords = []
    for st in strides:
        coords.append(rem // st)
        rem %= st
    for axis, st in enumerate(strides):
        if coords[axis] > 0:
            yield flat_index - st
        if coords[axis] < shape[axis] - 1:
            yield flat_index + st


@kernel("topology.merge_tree")
def compute_merge_tree(field: np.ndarray,
                       id_map: np.ndarray | None = None
                       ) -> tuple[MergeTree, np.ndarray]:
    """Batch merge tree of a scalar grid (any dimension, face connectivity).

    Returns ``(tree, vertex_arc)`` where ``vertex_arc[i]`` is the tree node
    whose arc contains flat vertex ``i`` — the per-vertex handle used by
    segmentation. ``id_map`` (same shape as ``field``) supplies global
    vertex ids; by default flat local indices are used.

    This is the paper's *in-situ* algorithm: one sort of the block plus a
    near-linear union-find sweep. NaN is rejected (it has no place in
    the sweep order); infinities are ordinary values. Backend seam: the
    numpy backend derives each vertex's earlier-swept neighbours in one
    array expression and runs this find/union sequence only at the
    vertices where two ascending regions first meet — same probe order
    there, bit-identical tree and ``vertex_arc`` (DESIGN.md §5).
    """
    values, ids = checked_field(field, id_map)
    n = values.size
    shape = tuple(np.asarray(field).shape)

    strides = []
    s = 1
    for extent in reversed(shape):
        strides.append(s)
        s *= extent
    strides.reverse()

    # Tie-break on the *global* id so block-local sweeps agree with the
    # global sweep even on plateau (equal-value) data.
    order = np.lexsort((ids, values))[::-1]
    processed = np.zeros(n, dtype=bool)
    uf = DisjointSet(n)
    # Per-component current tree node (keyed by union-find root).
    comp_node = np.full(n, -1, dtype=np.int64)
    vertex_arc_local = np.full(n, -1, dtype=np.int64)
    tree = MergeTree()

    for v in order:
        v = int(v)
        neighbor_roots: list[int] = []
        for u in _iter_grid_neighbors(v, shape, strides):
            if processed[u]:
                r = uf.find(u)
                if r not in neighbor_roots:
                    neighbor_roots.append(r)
        processed[v] = True
        if not neighbor_roots:
            # Local maximum: new leaf, new component.
            tree.add_node(int(ids[v]), values[v])
            comp_node[v] = v
            vertex_arc_local[v] = v
        elif len(neighbor_roots) == 1:
            # Regular vertex: joins the single component.
            r = neighbor_roots[0]
            uf.union_into(v, r)
            rr = uf.find(v)
            comp_node[rr] = comp_node[r]
            vertex_arc_local[v] = comp_node[r]
        else:
            # Saddle: new node, children = merging components' nodes.
            tree.add_node(int(ids[v]), values[v])
            for r in neighbor_roots:
                tree.set_parent(int(ids[comp_node[r]]), int(ids[v]))
                uf.union_into(r, v)
            rr = uf.find(v)
            comp_node[rr] = v
            vertex_arc_local[v] = v

    vertex_arc = ids[vertex_arc_local].reshape(shape)
    return tree, vertex_arc


@kernel("topology.merge_trees")
def compute_merge_trees(fields, id_maps=None
                        ) -> list[tuple[MergeTree, np.ndarray]]:
    """:func:`compute_merge_tree` of every field, in order — the in-situ
    stage of all the ranks of a decomposition at once. Backend seam: the
    numpy backend stacks same-shape fields and issues the sweep order,
    the up-links and the sweep itself once per stack."""
    id_maps = id_maps if id_maps is not None else [None] * len(fields)
    return [compute_merge_tree.reference(f, m)
            for f, m in zip(fields, id_maps)]

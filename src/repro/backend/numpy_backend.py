"""The ``numpy`` backend: vectorized kernels for the three hot paths.

Every kernel here is **bit-identical** to its reference implementation on
the outputs the analyses consume — the equivalence contract of DESIGN.md
§5, enforced by ``tests/test_backends.py``. The techniques:

* same pairing / same fold order — tree reductions fold whole levels in
  one elementwise array operation using exactly the reference's pairing,
  so each IEEE operation sees the same operands;
* per-row pairwise summation — numpy's ``sum`` over the contiguous axis
  of a stacked ``(rows, m)`` array applies the same pairwise summation
  as summing each row alone, so batched sums equal per-block sums;
* vectorized precompute + identical sweep — the merge-tree kernels
  compute sweep ranks and each vertex's *up-links* (neighbours swept
  earlier, in the reference's probe order) with array operations, the
  grid kernel from a per-shape neighbour table cached read-only, then
  run the reference's union-find sweep over plain python lists (numpy
  scalar indexing is the reference's real cost), preserving visit order
  and union order exactly;
* checked-once tree construction — the graph sweep collects its arcs
  and hands them to ``MergeTree.from_arrays``, which applies
  ``add_node``/``set_parent``'s invariants once over arrays;
* fast path, then ordered fallback — input validation (duplicate
  vertices, self-edges, undeclared endpoints) runs in array form, and
  any violation re-runs the input through the per-item loop so the
  exception names the first offender as the reference does;
* a kernel that cannot guarantee exactness for its inputs (unknown
  operator, mixed shapes, zero-count accumulators) falls back to the
  reference implementation rather than approximate.

Importing this module is the backend's availability probe: an
environment without numpy raises ``ImportError`` here and the registry
falls back to ``reference`` with a single warning.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.backend.registry import _REFERENCE


def _ref(name: str) -> Callable[..., Any]:
    """The reference implementation (the fallback for inexact cases)."""
    return _REFERENCE[name]


# ---------------------------------------------------------------------------
# (1) vmpi collectives: stacked whole-level folds
# ---------------------------------------------------------------------------

_UFUNC_BY_OP: dict[Any, np.ufunc] = {
    operator.add: np.add,
    operator.mul: np.multiply,
    min: np.minimum,
    max: np.maximum,
}


def _resolve_ufunc(op: Callable[[Any, Any], Any]) -> np.ufunc | None:
    if isinstance(op, np.ufunc) and op.nin == 2:
        return op
    return _UFUNC_BY_OP.get(op)


def pairwise_reduce_numpy(values: list[Any],
                          op: Callable[[Any, Any], Any]) -> Any:
    """Tree reduction of float contributions, folding whole levels in
    single array operations.

    Identical pairing to the reference ((0,1), (2,3), …, odd tail
    carried), so every elementwise IEEE operation sees the same operands
    — bit-identical results. Any other payload (ndarrays included) or an
    unrecognised operator falls back to the reference loop.
    """
    vals = list(values)
    if not vals:
        raise ValueError("cannot reduce an empty contribution list")
    if getattr(op, "is_moment_merge", False) and len(vals) > 1:
        # Same pairing as merge_moments' tree fold — route there so the
        # whole reduction runs through the vectorized Pébay formulas.
        return merge_moments_numpy(vals)
    ufunc = _resolve_ufunc(op)
    if (ufunc is None or len(vals) < 2
            or not all(isinstance(v, float) for v in vals)):
        return _ref("vmpi.pairwise_reduce")(vals, op)
    stack = np.array(vals, dtype=np.float64)
    while stack.shape[0] > 1:
        m = stack.shape[0]
        even = m - (m % 2)
        merged = ufunc(stack[0:even:2], stack[1:even:2])
        if m % 2:
            merged = np.concatenate([merged, stack[-1:]])
        stack = merged
    return float(stack[0])


# ---------------------------------------------------------------------------
# (2) topology: vectorized precompute + list-based union-find sweeps
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _neighbor_table(shape: tuple[int, ...]) -> np.ndarray:
    """``(n, 2 * ndim)`` flat face-neighbour indices of a C-order grid, in
    ``_iter_grid_neighbors`` order (per axis ``-stride`` then
    ``+stride``), with ``-1`` marking out-of-bounds.

    Depends on the shape only, so the blocks of a decomposition share a
    handful of tables; read-only because every caller gets the same one.
    """
    n = math.prod(shape)
    idx = np.arange(n)
    table = np.empty((n, 2 * len(shape)), dtype=np.int64)
    stride = n
    rem = idx
    for axis, extent in enumerate(shape):
        stride //= extent
        coord = rem // stride
        rem = rem % stride
        table[:, 2 * axis] = np.where(coord > 0, idx - stride, -1)
        table[:, 2 * axis + 1] = np.where(coord < extent - 1, idx + stride, -1)
    table.setflags(write=False)
    return table


def merge_tree_numpy(field: np.ndarray, id_map: np.ndarray | None = None):
    """Grid merge tree: every vertex's *up-links* (in-bounds neighbours
    swept earlier) derived in one array expression laid out in sweep
    order, then the reference's union-find sweep over plain lists.

    The sweep visits vertices in the same order, probes the up-links in
    the reference's neighbour order, and performs the same find / union
    sequence, so the tree and ``vertex_arc`` are bit-identical. A vertex
    without up-links is a leaf and one with a single up-link is regular;
    neither needs a root list.
    """
    from repro.analysis.topology.merge_tree import MergeTree, reject_nan

    values_arr = np.asarray(field, dtype=np.float64).ravel()
    n = values_arr.size
    if n == 0:
        raise ValueError("cannot compute the merge tree of an empty field")
    reject_nan(values_arr, "field value at flat index {}".format)
    shape = tuple(np.asarray(field).shape)
    if id_map is not None:
        ids = np.asarray(id_map).ravel()
        if ids.size != n:
            raise ValueError(f"id_map size {ids.size} != field size {n}")
        if np.unique(ids).size != n:
            raise ValueError("id_map must assign distinct ids")
    else:
        ids = np.arange(n, dtype=np.int64)

    order = np.lexsort((ids, values_arr))[::-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    nbrs = _neighbor_table(shape)[order]
    # rank[-1] is a wrapped read; the in-bounds test masks it.
    is_up = (nbrs >= 0) & (rank[nbrs] < np.arange(n)[:, None])
    up_links = nbrs[is_up].tolist()  # row-major: probe order per vertex
    n_up = np.count_nonzero(is_up, axis=1).tolist()

    parent_uf = list(range(n))
    comp_node = [-1] * n
    vertex_arc_local = [-1] * n
    tree = MergeTree()

    start = 0
    for v, k in zip(order.tolist(), n_up):
        if k == 0:  # local maximum
            tree.add_node(int(ids[v]), values_arr[v])
            comp_node[v] = v
            vertex_arc_local[v] = v
            continue
        x = up_links[start]
        while parent_uf[x] != x:  # find with path halving
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        neighbor_roots = None
        for u in up_links[start + 1:start + k]:
            while parent_uf[u] != u:
                parent_uf[u] = parent_uf[parent_uf[u]]
                u = parent_uf[u]
            if neighbor_roots is not None:
                if u not in neighbor_roots:
                    neighbor_roots.append(u)
            elif u != x:
                neighbor_roots = [x, u]
        start += k
        if neighbor_roots is None:  # regular vertex: joins root x
            parent_uf[v] = x
            vertex_arc_local[v] = comp_node[x]
        else:  # saddle
            vid = int(ids[v])
            tree.add_node(vid, values_arr[v])
            for r in neighbor_roots:
                tree.set_parent(int(ids[comp_node[r]]), vid)
                parent_uf[r] = v
            comp_node[v] = v
            vertex_arc_local[v] = v

    vertex_arc = ids[np.asarray(vertex_arc_local,
                                dtype=np.int64)].reshape(shape)
    return tree, vertex_arc


def _edge_positions(sorted_ids: np.ndarray, edges: np.ndarray
                    ) -> np.ndarray | None:
    """Each ``(m, 2)`` edge endpoint as a position in ``sorted_ids``;
    ``None`` when some endpoint is not among them (the caller decides the
    error semantics)."""
    n = sorted_ids.size
    pos = np.searchsorted(sorted_ids, edges)
    if not (sorted_ids[np.minimum(pos, n - 1)] == edges).all():
        return None
    return pos


def _graph_tree(ids: np.ndarray, vals: np.ndarray, edge_pos: np.ndarray):
    """The reference graph sweep, in sweep-position space.

    Vertices are renumbered by sweep position and each keeps only its
    earlier-swept neighbours, in the reference's per-vertex edge order
    (``u->v`` then ``v->u`` per edge). A component's union-find root is
    always its most recently swept vertex, so the arcs are
    ``(root, vertex)`` pairs; the tree is filled from them in one go.
    """
    from repro.analysis.topology.merge_tree import MergeTree

    n = ids.size
    order = np.lexsort((ids, vals))[::-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    src = rank[edge_pos.ravel()]
    dst = rank[edge_pos[:, ::-1].ravel()]
    earlier = dst < src
    src, dst = src[earlier], dst[earlier]
    up_links = dst[np.argsort(src, kind="stable")].tolist()
    n_up = np.bincount(src, minlength=n).tolist()

    parent_uf = list(range(n))
    child: list[int] = []
    parent: list[int] = []
    start = 0
    for i, k in enumerate(n_up):
        if k == 0:
            continue
        roots: list[int] = []
        for x in up_links[start:start + k]:
            while parent_uf[x] != x:  # find with path halving
                parent_uf[x] = parent_uf[parent_uf[x]]
                x = parent_uf[x]
            if x not in roots:
                roots.append(x)
        start += k
        for r in roots:
            child.append(r)
            parent.append(i)
            parent_uf[r] = i
    return MergeTree.from_arrays(ids[order], vals[order], child, parent)


def graph_merge_tree_numpy(values: dict[int, float],
                           edges: list[tuple[int, int]]):
    """Augmented merge tree of a graph: vectorized sweep order and
    adjacency, then the identical union-find sweep."""
    from repro.analysis.topology.merge_tree import reject_nan

    if not values:
        raise ValueError("cannot compute the merge tree of an empty graph")
    ids = np.array(sorted(values), dtype=np.int64)
    vals = np.array([values[vid] for vid in ids.tolist()], dtype=np.float64)
    reject_nan(vals, lambda i: f"value of vertex {ids[i]}")
    edge_pos = _edge_positions(
        ids, np.asarray(edges, dtype=np.int64).reshape(len(edges), 2))
    if edge_pos is None:
        # The reference raises the KeyError naming the first offender.
        return _ref("topology.graph_merge_tree")(values, edges)
    return _graph_tree(ids, vals, edge_pos)


def _glue_batch_ordered(boundary_trees, edge_lists):
    """Batch glue with the streaming glue's checks in streaming order:
    the path that names the first offender."""
    from repro.analysis.topology.merge_tree import MergeTree

    values: dict[int, float] = {}
    for bt in boundary_trees:
        for vid, val in bt.nodes.items():
            vid = int(vid)
            if vid in values:
                raise ValueError(f"vertex {vid} already streamed")
            values[vid] = float(val)
    checked: list[tuple[int, int]] = []
    for u, v in itertools.chain.from_iterable(edge_lists):
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-edge on vertex {u}")
        for x in (u, v):
            if x not in values:
                raise KeyError(
                    f"edge ({u},{v}) streamed before vertex {x} was declared")
        checked.append((u, v))
    if not values:
        return MergeTree()
    return graph_merge_tree_numpy(values, checked)


def glue_batch_numpy(boundary_trees, cross_edges):
    """Batch glue: one union-find sweep over the combined vertex/edge
    set instead of streaming chain-merges.

    The augmented merge tree is unique given the (value, id) total
    order, so this equals ``StreamingGlue``'s output node-for-node and
    arc-for-arc. Duplicate vertices, self-edges and undeclared endpoints
    are detected in array form; any of them re-runs the input through
    the ordered loop, which raises the streaming glue's exception for
    the first offender.
    """
    flatten = itertools.chain.from_iterable
    edge_lists = [*(bt.edges for bt in boundary_trees), cross_edges]
    n = sum(len(bt.nodes) for bt in boundary_trees)
    if n == 0:
        return _glue_batch_ordered(boundary_trees, edge_lists)
    ids = np.fromiter(flatten(bt.nodes for bt in boundary_trees),
                      dtype=np.int64, count=n)
    vals = np.fromiter(flatten(bt.nodes.values() for bt in boundary_trees),
                       dtype=np.float64, count=n)
    by_id = np.argsort(ids)
    ids, vals = ids[by_id], vals[by_id]
    m = sum(map(len, edge_lists))
    edges = np.fromiter(flatten(flatten(edge_lists)), dtype=np.int64,
                        count=2 * m).reshape(m, 2)
    edge_pos = _edge_positions(ids, edges)
    if (edge_pos is None or (ids[1:] == ids[:-1]).any()
            or (edges[:, 0] == edges[:, 1]).any()):
        return _glue_batch_ordered(boundary_trees, edge_lists)
    return _graph_tree(ids, vals, edge_pos)


# ---------------------------------------------------------------------------
# (3) statistics: batched single-pass moments / autocorrelation
# ---------------------------------------------------------------------------


#: Batch only small-to-medium blocks — measured: beyond ~2048 elements
#: the stacked temporaries blow the cache while the per-block reference
#: (itself vectorised) stays resident, so batching loses. Module-level
#: so tests can force either path.
LEARN_BLOCK_MAX_ELEMS = 2048


def learn_blocks_numpy(blocks):
    """Batched learn: stack same-size blocks and compute every block's
    aggregates in shared axis-wise passes (per-row pairwise sums are
    identical to per-block sums)."""
    from repro.analysis.statistics.moments import MomentAccumulator

    arrs = [np.asarray(b, dtype=np.float64).ravel() for b in blocks]
    if not arrs:
        return []
    m = arrs[0].size
    if (m == 0 or m > LEARN_BLOCK_MAX_ELEMS
            or any(a.size != m for a in arrs)):
        return _ref("statistics.learn_blocks")(blocks)
    stack = np.stack(arrs)
    if not np.all(np.isfinite(stack)):
        # Re-run per block so the error surfaces exactly as the
        # reference raises it (first offending block).
        return _ref("statistics.learn_blocks")(blocks)
    means = np.mean(stack, axis=1)
    d = stack - means[:, None]
    d2 = d * d
    mins = np.min(stack, axis=1)
    maxs = np.max(stack, axis=1)
    m2 = np.sum(d2, axis=1)
    m3 = np.sum(d2 * d, axis=1)
    m4 = np.sum(d2 * d2, axis=1)
    return [MomentAccumulator(n=m, minimum=float(mins[i]),
                              maximum=float(maxs[i]), mean=float(means[i]),
                              M2=float(m2[i]), M3=float(m3[i]),
                              M4=float(m4[i]))
            for i in range(len(arrs))]


def _pebay_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``MomentAccumulator.merge`` over packed rows.

    Term-for-term the same expressions (and evaluation order) as the
    scalar formulas, so each elementwise IEEE operation matches.
    """
    na = a[..., 0]
    nb = b[..., 0]
    n = na + nb
    delta = b[..., 3] - a[..., 3]
    delta2 = delta * delta
    out = np.empty_like(a)
    out[..., 0] = n
    out[..., 1] = np.minimum(a[..., 1], b[..., 1])
    out[..., 2] = np.maximum(a[..., 2], b[..., 2])
    out[..., 3] = a[..., 3] + delta * nb / n
    out[..., 4] = a[..., 4] + b[..., 4] + delta2 * na * nb / n
    out[..., 5] = (a[..., 5] + b[..., 5]
                   + delta * delta2 * na * nb * (na - nb) / (n * n)
                   + 3.0 * delta * (na * b[..., 4] - nb * a[..., 4]) / n)
    out[..., 6] = (a[..., 6] + b[..., 6]
                   + delta2 * delta2 * na * nb
                   * (na * na - na * nb + nb * nb) / (n * n * n)
                   + 6.0 * delta2
                   * (na * na * b[..., 4] + nb * nb * a[..., 4]) / (n * n)
                   + 4.0 * delta * (na * b[..., 5] - nb * a[..., 5]) / n)
    return out


def _fold_packed(arr: np.ndarray) -> np.ndarray:
    """Pairwise tree fold over axis 0 with the reference's pairing."""
    while arr.shape[0] > 1:
        m = arr.shape[0]
        even = m - (m % 2)
        merged = _pebay_pair(arr[0:even:2], arr[1:even:2])
        if m % 2:
            merged = np.concatenate([merged, arr[-1:]])
        arr = merged
    return arr[0]


def _unpack_moments(vec: np.ndarray):
    from repro.analysis.statistics.moments import MomentAccumulator

    return MomentAccumulator(n=int(vec[0]), minimum=float(vec[1]),
                             maximum=float(vec[2]), mean=float(vec[3]),
                             M2=float(vec[4]), M3=float(vec[5]),
                             M4=float(vec[6]))


def merge_moments_numpy(accs):
    """Tree merge of accumulators, folding whole levels elementwise."""
    accs = list(accs)
    if not accs:
        raise ValueError("cannot merge an empty accumulator list")
    if len(accs) == 1:
        return accs[0]
    # Tuple rows beat per-accumulator pack() calls ~3x; the float64
    # conversion of each field is identical either way.
    arr = np.array([(a.n, a.minimum, a.maximum, a.mean, a.M2, a.M3, a.M4)
                    for a in accs], dtype=np.float64)
    if np.any(arr[:, 0] == 0):
        # Empty accumulators short-circuit pairwise in the reference;
        # keep those exact semantics by deferring to it.
        return _ref("statistics.merge_moments")(accs)
    return _unpack_moments(_fold_packed(arr))


def merge_packed_moments_numpy(packed, n_vars: int):
    """Merge every variable's rank partials at once: reshape to
    ``(ranks, n_vars, 7)`` and fold the rank axis."""
    packed = list(packed)
    if not packed or n_vars == 0:
        return _ref("statistics.merge_packed_moments")(packed, n_vars)
    arr = np.stack([np.asarray(v, dtype=np.float64) for v in packed])
    arr = arr.reshape(len(packed), n_vars, 7)
    if np.any(arr[:, :, 0] == 0):
        return _ref("statistics.merge_packed_moments")(packed, n_vars)
    merged = _fold_packed(arr)
    return [_unpack_moments(merged[i]) for i in range(n_vars)]


def autocorr_cross_sums_numpy(current, history):
    """All lags' cross sums in batched axis-wise passes; the current
    field's own sums are computed once instead of once per lag."""
    x = np.asarray(current, dtype=np.float64).ravel()
    if not history:
        return np.empty((0, 6), dtype=np.float64)
    ys = [np.asarray(h, dtype=np.float64).ravel() for h in history]
    if any(y.shape != x.shape for y in ys):
        return _ref("statistics.autocorr_cross_sums")(current, history)
    stack = np.stack(ys)
    out = np.empty((len(ys), 6), dtype=np.float64)
    out[:, 0] = x.size
    out[:, 1] = float(x.sum())
    out[:, 2] = stack.sum(axis=1)
    out[:, 3] = float((x * x).sum())
    out[:, 4] = (stack * stack).sum(axis=1)
    out[:, 5] = (x[None, :] * stack).sum(axis=1)
    return out


def autocorr_merge_numpy(packed_partials, max_lag: int):
    """Left-fold the rank partials for every lag at once (additions in
    the same rank order as the reference)."""
    if max_lag == 0:
        return np.empty((0, 6), dtype=np.float64)
    if not packed_partials:
        return np.zeros((max_lag, 6), dtype=np.float64)
    arr = np.stack([np.asarray(v, dtype=np.float64)
                    for v in packed_partials])
    arr = arr.reshape(arr.shape[0], max_lag, 6)
    acc = np.zeros((max_lag, 6), dtype=np.float64)
    for r in range(arr.shape[0]):
        acc = acc + arr[r]
    return acc


KERNELS: dict[str, Callable[..., Any]] = {
    "vmpi.pairwise_reduce": pairwise_reduce_numpy,
    "topology.merge_tree": merge_tree_numpy,
    "topology.graph_merge_tree": graph_merge_tree_numpy,
    "topology.glue_batch": glue_batch_numpy,
    "statistics.learn_blocks": learn_blocks_numpy,
    "statistics.merge_moments": merge_moments_numpy,
    "statistics.merge_packed_moments": merge_packed_moments_numpy,
    "statistics.autocorr_cross_sums": autocorr_cross_sums_numpy,
    "statistics.autocorr_merge": autocorr_merge_numpy,
}

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
* vectorized precompute + identical sweep — the merge-tree kernels build
  neighbour tables and sweep ranks with array operations, then run the
  reference's union-find sweep over plain python lists (numpy scalar
  indexing is the reference's real cost), preserving visit order and
  union order exactly;
* a kernel that cannot guarantee exactness for its inputs (unknown
  operator, mixed shapes, zero-count accumulators) falls back to the
  reference implementation rather than approximate.

Importing this module is the backend's availability probe: an
environment without numpy raises ``ImportError`` here and the registry
falls back to ``reference`` with a single warning.
"""

from __future__ import annotations

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


def _grid_strides(shape: tuple[int, ...]) -> list[int]:
    strides: list[int] = []
    s = 1
    for extent in reversed(shape):
        strides.append(s)
        s *= extent
    strides.reverse()
    return strides


def merge_tree_numpy(field: np.ndarray, id_map: np.ndarray | None = None):
    """Grid merge tree: vectorized neighbour table and sweep ranks, then
    the reference's union-find sweep over plain lists.

    The sweep visits vertices in the same order, probes neighbours in the
    same (−stride, +stride per axis) order, and performs the same find /
    union sequence, so the tree and ``vertex_arc`` are bit-identical.
    """
    from repro.analysis.topology.merge_tree import MergeTree

    values_arr = np.asarray(field, dtype=np.float64).ravel()
    n = values_arr.size
    if n == 0:
        raise ValueError("cannot compute the merge tree of an empty field")
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

    # Neighbour table in _iter_grid_neighbors order: per axis −st then
    # +st, with −1 marking out-of-bounds.
    idx = np.arange(n)
    rem = idx
    nbr_cols = []
    for axis, st in enumerate(_grid_strides(shape)):
        coord = rem // st
        rem = rem % st
        nbr_cols.append(np.where(coord > 0, idx - st, -1))
        nbr_cols.append(np.where(coord < shape[axis] - 1, idx + st, -1))
    nbrs_l = np.stack(nbr_cols, axis=1).tolist()

    order_l = order.tolist()
    rank_l = rank.tolist()
    ids_l = [int(x) for x in ids.tolist()]
    values_l = values_arr.tolist()

    parent_uf = list(range(n))
    comp_node = [-1] * n
    vertex_arc_local = [-1] * n
    tree = MergeTree()

    for i, v in enumerate(order_l):
        neighbor_roots: list[int] = []
        for u in nbrs_l[v]:
            if u >= 0 and rank_l[u] < i:  # processed earlier in the sweep
                x = u
                while parent_uf[x] != x:  # find with path halving
                    parent_uf[x] = parent_uf[parent_uf[x]]
                    x = parent_uf[x]
                if x not in neighbor_roots:
                    neighbor_roots.append(x)
        if not neighbor_roots:
            tree.add_node(ids_l[v], values_l[v])
            comp_node[v] = v
            vertex_arc_local[v] = v
        elif len(neighbor_roots) == 1:
            r = neighbor_roots[0]
            parent_uf[v] = r
            x = v
            while parent_uf[x] != x:
                parent_uf[x] = parent_uf[parent_uf[x]]
                x = parent_uf[x]
            comp_node[x] = comp_node[r]
            vertex_arc_local[v] = comp_node[r]
        else:
            tree.add_node(ids_l[v], values_l[v])
            for r in neighbor_roots:
                tree.set_parent(ids_l[comp_node[r]], ids_l[v])
                parent_uf[r] = v
            x = v
            while parent_uf[x] != x:
                parent_uf[x] = parent_uf[parent_uf[x]]
                x = parent_uf[x]
            comp_node[x] = v
            vertex_arc_local[v] = v

    vertex_arc = ids[np.asarray(vertex_arc_local,
                                dtype=np.int64)].reshape(shape)
    return tree, vertex_arc


def _graph_sweep(ids: list[int], vals_l: list[float], order_l: list[int],
                 rank_l: list[int], adj: list[int], offsets: list[int]):
    """The reference graph sweep over CSR adjacency and plain lists."""
    from repro.analysis.topology.merge_tree import MergeTree

    n = len(ids)
    parent_uf = list(range(n))
    latest = [-1] * n
    tree = MergeTree()
    for i, vi in enumerate(order_l):
        vid = ids[vi]
        tree.add_node(vid, vals_l[vi])
        roots: list[int] = []
        for j in range(offsets[vi], offsets[vi + 1]):
            nb = adj[j]
            if rank_l[nb] < i:
                x = nb
                while parent_uf[x] != x:
                    parent_uf[x] = parent_uf[parent_uf[x]]
                    x = parent_uf[x]
                if x not in roots:
                    roots.append(x)
        for r in roots:
            tree.set_parent(latest[r], vid)
            parent_uf[r] = vi
        x = vi
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        latest[x] = vid
    return tree


def _graph_csr(ids_arr: np.ndarray, edges: list[tuple[int, int]],
               n: int) -> tuple[list[int], list[int]] | None:
    """CSR adjacency preserving the reference's per-vertex edge order.

    Returns ``None`` when an edge references an unknown vertex (caller
    decides the error semantics).
    """
    if not edges:
        return [], [0] * (n + 1)
    ea = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    pos = np.searchsorted(ids_arr, ea)
    ok = (pos < n) & (ids_arr[np.minimum(pos, n - 1)] == ea)
    if not bool(ok.all()):
        return None
    # Directed entries in reference append order: u→v then v→u per edge.
    src = pos.ravel()
    dst = pos[:, ::-1].ravel()
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return dst[order].tolist(), offsets.tolist()


def graph_merge_tree_numpy(values: dict[int, float],
                           edges: list[tuple[int, int]]):
    """Augmented merge tree of a graph: vectorized sweep order and CSR
    adjacency, then the identical union-find sweep."""
    if not values:
        raise ValueError("cannot compute the merge tree of an empty graph")
    ids = sorted(values)
    n = len(ids)
    ids_arr = np.array(ids, dtype=np.int64)
    vals = np.array([values[vid] for vid in ids], dtype=np.float64)
    csr = _graph_csr(ids_arr, edges, n)
    if csr is None:
        # Reproduce the reference's first-offender KeyError.
        for u, v in edges:
            if u not in values or v not in values:
                raise KeyError(f"edge ({u},{v}) references unknown vertex")
        raise AssertionError("unreachable")
    adj, offsets = csr
    order = np.lexsort((ids_arr, vals))[::-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return _graph_sweep(ids, vals.tolist(), order.tolist(), rank.tolist(),
                        adj, offsets)


def glue_batch_numpy(boundary_trees, cross_edges):
    """Batch glue: one union-find sweep over the combined vertex/edge
    set instead of streaming chain-merges.

    The augmented merge tree is unique given the (value, id) total
    order, so this equals ``StreamingGlue``'s output node-for-node and
    arc-for-arc. Streaming-order error semantics (duplicate vertices,
    self-edges, undeclared endpoints) are reproduced exactly.
    """
    values: dict[int, float] = {}
    for bt in boundary_trees:
        for vid, val in bt.nodes.items():
            vid = int(vid)
            if vid in values:
                raise ValueError(f"vertex {vid} already streamed")
            values[vid] = float(val)
    edges: list[tuple[int, int]] = []
    for bt in boundary_trees:
        edges.extend(bt.edges)
    edges.extend(cross_edges)
    checked: list[tuple[int, int]] = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-edge on vertex {u}")
        for x in (u, v):
            if x not in values:
                raise KeyError(
                    f"edge ({u},{v}) streamed before vertex {x} was declared")
        checked.append((u, v))
    if not values:
        from repro.analysis.topology.merge_tree import MergeTree

        return MergeTree()
    return graph_merge_tree_numpy(values, checked)


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

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
* vectorized precompute + a sweep of the meeting points only — the
  merge-tree kernels compute sweep ranks and each vertex's *up-links*
  (neighbours swept earlier, in the reference's probe order) with array
  operations, the grid kernel from a per-shape neighbour table cached
  read-only and over all the same-shape blocks of a decomposition at
  once; one sweep core labels every vertex with the maximum its steepest
  ascent ends in and runs the reference's find/union sequence, over
  plain python lists, only where two labels first meet — every other
  vertex is regular by construction, and gets its arc by array lookup;
* checked-once tree construction — both kernels hand their arcs to
  ``MergeTree.from_arrays``, which applies ``add_node``/``set_parent``'s
  invariants once over arrays;
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

def pairwise_reduce_numpy(values: list[Any],
                          op: Callable[[Any, Any], Any]) -> Any:
    """Tree reduction: moment accumulators fold whole levels through
    the vectorized merge (the reference's pairing — (0,1), (2,3), …, odd
    tail carried — so bit-identical results); any other payload runs the
    reference loop.
    """
    vals = list(values)
    if not vals:
        raise ValueError("cannot reduce an empty contribution list")
    if getattr(op, "is_moment_merge", False) and len(vals) > 1:
        # Same pairing as merge_moments' tree fold — route there so the
        # whole reduction runs through the vectorized Pébay formulas.
        return merge_moments_numpy(vals)
    return _ref("vmpi.pairwise_reduce")(vals, op)


# ---------------------------------------------------------------------------
# (2) topology: one sweep core in sweep-position space
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _neighbor_table(shape: tuple[int, ...]) -> np.ndarray:
    """``(n, 2 * ndim)`` flat face-neighbour indices of a C-order grid, in
    ``_iter_grid_neighbors`` order (per axis ``-stride`` then
    ``+stride``), with ``-1`` marking out-of-bounds.

    Depends on the shape only and is read-only because every caller gets
    the same one. The cache holds a decomposition's tables several times
    over: a near-even 3-D split has up to eight block shapes beside the
    global one.
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


def _sweep_core(n_up: np.ndarray, up: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union-find sweep of a graph given in sweep-position space.

    Vertex ``i`` is the ``i``-th swept; ``up`` lists, vertex after vertex
    and in the reference's probe order, the positions of each vertex's
    ``n_up[i]`` *up-links* (neighbours swept earlier). Returns the
    critical arcs ``(child, parent)`` — one per component a saddle
    merges, saddles ascending and each saddle's children in the order
    the reference first meets them — and ``head``: for every position the
    leaf or saddle heading the arc it lies on (itself, for a node).

    Every vertex's steepest-ascent pointer is its earliest-swept up-link;
    pointer jumping turns the pointers into *labels*, the maximum each
    ascent ends in. An up-link was swept with its whole ascent path, so
    it is already connected to its label, and a vertex whose up-links
    carry two labels that met at an earlier vertex is regular. The
    python loop therefore visits only the first vertex at which each
    pair of labels meets, with the reference's find/union sequence over
    labels; no other vertex can change a component.
    """
    n = n_up.size
    idx = np.arange(n)
    ptr = idx.copy()
    if up.size:
        linked = np.flatnonzero(n_up)
        ptr[linked] = np.minimum.reduceat(up, (np.cumsum(n_up) - n_up)[linked])
    label = ptr
    while True:  # pointer jumping: ceil(log2(longest ascent)) rounds
        jumped = label[label]
        if (jumped == label).all():
            break
        label = jumped

    row = np.repeat(idx, n_up)
    up_label = label[up]
    meets = np.flatnonzero(up_label != label[row])
    child: list[int] = []
    parent: list[int] = []
    if meets.size:
        a, b = label[row[meets]], up_label[meets]
        _, first = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                             return_index=True)
        visit = np.zeros(n, dtype=bool)
        visit[row[meets[first]]] = True
        rows = np.flatnonzero(visit)
        labels = up_label[visit[row]].tolist()
        parent_uf = list(range(n))  # over labels and saddles only
        start = 0
        for i, k in zip(rows.tolist(), n_up[rows].tolist()):
            x = labels[start]
            while parent_uf[x] != x:  # find with path halving
                parent_uf[x] = parent_uf[parent_uf[x]]
                x = parent_uf[x]
            roots = None
            for u in labels[start + 1:start + k]:
                while parent_uf[u] != u:
                    parent_uf[u] = parent_uf[parent_uf[u]]
                    u = parent_uf[u]
                if roots is not None:
                    if u not in roots:
                        roots.append(u)
                elif u != x:
                    roots = [x, u]
            start += k
            if roots is not None:  # saddle: the new root of what it merges
                for r in roots:
                    child.append(r)
                    parent.append(i)
                    parent_uf[r] = i

    child_arr = np.asarray(child, dtype=np.int64)
    parent_arr = np.asarray(parent, dtype=np.int64)
    # head[i]: the deepest node at or below label[i] swept no later than
    # i, by binary lifting over the critical tree (n = "no parent").
    lift = np.full(n + 1, n, dtype=np.int64)
    lift[child_arr] = parent_arr
    lifts = [lift]
    while True:
        lift = lift[lift]
        if (lift == n).all():
            break
        lifts.append(lift)
    head = label
    for lift in reversed(lifts):
        lower = lift[head]
        head = np.where(lower <= idx, lower, head)
    return child_arr, parent_arr, head


def _stacked_merge_trees(values: np.ndarray, ids: np.ndarray,
                         shape: tuple[int, ...]):
    """Merge trees of ``(g, n)`` stacked same-shape fields: the stack is
    one disjoint graph whose block ``k`` owns sweep positions
    ``[k * n, (k + 1) * n)``, so sweep order, up-links and the sweep
    core are each issued once. Returns each block's tree and, per flat
    vertex, the vertex heading its arc."""
    from repro.analysis.topology.merge_tree import MergeTree

    g, n = values.shape
    idx = np.arange(g * n)
    order = np.lexsort((ids, values), axis=-1)[:, ::-1]
    base = (np.arange(g) * n)[:, None]
    swept = (order + base).ravel()  # sweep position -> vertex of the stack
    position = np.empty_like(idx)
    position[swept] = idx
    nbrs = _neighbor_table(shape)[order]
    # An out-of-bounds -1 reads some other vertex's position; the
    # in-bounds test masks it.
    nbr_pos = position[nbrs + base[:, :, None]]
    is_up = (nbrs >= 0) & (nbr_pos < idx.reshape(g, n, 1))
    child, parent, head = _sweep_core(
        np.count_nonzero(is_up, axis=-1).ravel(), nbr_pos[is_up])

    vertex = order.ravel()  # sweep position -> vertex of its own block
    is_node = head == idx
    nodes = np.flatnonzero(is_node)
    node_index = np.cumsum(is_node) - 1
    head_vertex = np.empty_like(idx)
    head_vertex[swept] = vertex[head]
    bounds = np.arange(g + 1) * n
    node_cut = np.searchsorted(nodes, bounds).tolist()
    arc_cut = np.searchsorted(parent, bounds).tolist()
    out = []
    for k in range(g):
        lo, hi = node_cut[k], node_cut[k + 1]
        arcs = slice(arc_cut[k], arc_cut[k + 1])
        at = vertex[nodes[lo:hi]]
        out.append((MergeTree.from_arrays(ids[k, at], values[k, at],
                                          node_index[child[arcs]] - lo,
                                          node_index[parent[arcs]] - lo),
                    head_vertex[k * n:(k + 1) * n]))
    return out


def merge_trees_numpy(fields, id_maps=None):
    """Grid merge trees of several fields, same-shape fields stacked.

    Nodes, arcs, children order and ``vertex_arc`` are the reference
    sweep's, and so is the exception for the first field it would refuse.
    """
    from repro.analysis.topology.merge_tree import checked_field

    fields = [np.asarray(f) for f in fields]
    id_maps = list(id_maps) if id_maps is not None else [None] * len(fields)
    checked = [checked_field(f, m) for f, m in zip(fields, id_maps)]
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for k, f in enumerate(fields):
        by_shape.setdefault(f.shape, []).append(k)
    out: list[Any] = [None] * len(fields)
    for shape, members in by_shape.items():
        values = np.stack([checked[k][0] for k in members])
        ids = np.stack([checked[k][1] for k in members])
        for k, (tree, arc) in zip(members,
                                  _stacked_merge_trees(values, ids, shape)):
            out[k] = (tree, checked[k][1][arc].reshape(shape))
    return out


def merge_tree_numpy(field: np.ndarray, id_map: np.ndarray | None = None):
    """Grid merge tree of one field: a stack of one."""
    return merge_trees_numpy([field], [id_map])[0]


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
    (``u->v`` then ``v->u`` per edge). The sweep core finds the critical
    arcs; the augmented tree threads every arc's vertices in sweep order
    between its head and the saddle below, so a saddle's child is the
    last vertex of the arc it closes — the component's most recently
    swept vertex, as in the reference.
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
    child, parent, head = _sweep_core(
        np.bincount(src, minlength=n), dst[np.argsort(src, kind="stable")])
    along = np.argsort(head, kind="stable")
    same_arc = head[along[1:]] == head[along[:-1]]
    tail = np.empty(n, dtype=np.int64)
    ends = along[np.append(~same_arc, True)]
    tail[head[ends]] = ends
    return MergeTree.from_arrays(
        ids[order], vals[order],
        np.concatenate([along[:-1][same_arc], tail[child]]),
        np.concatenate([along[1:][same_arc], parent]))


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
    "topology.merge_trees": merge_trees_numpy,
    "topology.graph_merge_tree": graph_merge_tree_numpy,
    "topology.glue_batch": glue_batch_numpy,
    "statistics.learn_blocks": learn_blocks_numpy,
    "statistics.merge_moments": merge_moments_numpy,
    "statistics.merge_packed_moments": merge_packed_moments_numpy,
    "statistics.autocorr_cross_sums": autocorr_cross_sums_numpy,
    "statistics.autocorr_merge": autocorr_merge_numpy,
}

"""Tests for the hybrid topology pipeline: boundary trees, streaming glue,
and the headline invariant — glued distributed tree == global tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.topology import (
    StreamingGlue,
    compute_boundary_tree,
    compute_merge_tree,
    cross_block_edges,
    distributed_merge_tree,
)
from repro.analysis.topology.distributed import (
    block_boundary_mask,
    compute_block_boundary_trees,
    global_id_array,
)
from repro.analysis.topology.stream_merge import compute_merge_tree_graph
from repro.vmpi import BlockDecomposition3D


def _random_field(shape, seed):
    return np.random.default_rng(seed).random(shape)


def _blobby_field(shape, n_blobs, seed):
    """Smooth field with several Gaussian features (combustion-like)."""
    rng = np.random.default_rng(seed)
    coords = np.stack(np.mgrid[[slice(0, s) for s in shape]]).astype(float)
    f = np.zeros(shape)
    for _ in range(n_blobs):
        center = [rng.uniform(0, s - 1) for s in shape]
        width = rng.uniform(1.0, 3.0)
        d2 = sum((coords[a] - center[a]) ** 2 for a in range(3))
        f += rng.uniform(0.5, 2.0) * np.exp(-d2 / (2 * width * width))
    return f


class TestBoundaryMask:
    def test_interior_block_all_faces(self):
        d = BlockDecomposition3D((9, 9, 9), (3, 3, 3))
        center = d.rank_of_coords((1, 1, 1))
        mask = block_boundary_mask(d.block(center), d.global_shape)
        # all 6 faces marked; the 3x3x3 block has only 1 interior cell
        assert mask.sum() == 26
        assert not mask[1, 1, 1]

    def test_corner_block_three_faces(self):
        d = BlockDecomposition3D((9, 9, 9), (3, 3, 3))
        mask = block_boundary_mask(d.block(0), d.global_shape)
        # faces at +x, +y, +z only
        assert mask[2, :, :].all() and mask[:, 2, :].all() and mask[:, :, 2].all()
        assert not mask[0, 0, 0]

    def test_single_block_no_boundary(self):
        d = BlockDecomposition3D((4, 4, 4), (1, 1, 1))
        assert not block_boundary_mask(d.block(0), d.global_shape).any()


class TestCrossEdges:
    def test_count_for_axis_split(self):
        d = BlockDecomposition3D((4, 3, 3), (2, 1, 1))
        edges = cross_block_edges(d)
        assert len(edges) == 3 * 3  # one interface plane of 3x3 vertex pairs

    def test_edges_connect_adjacent_global_vertices(self):
        d = BlockDecomposition3D((4, 4, 4), (2, 2, 1))
        ids = global_id_array(d.global_shape)
        owner = np.empty(d.global_shape, dtype=int)
        for b in d.blocks():
            owner[b.slices] = b.rank
        for u, v in cross_block_edges(d):
            cu = np.unravel_index(u, d.global_shape)
            cv = np.unravel_index(v, d.global_shape)
            assert sum(abs(a - b) for a, b in zip(cu, cv)) == 1
            assert owner[cu] != owner[cv]

    def test_no_edges_single_block(self):
        d = BlockDecomposition3D((4, 4, 4), (1, 1, 1))
        assert cross_block_edges(d) == []


def _boundary_tree_by_loop(block_values, id_map, boundary_mask):
    """The per-vertex definition of the boundary tree (what
    ``compute_boundary_tree`` was before it became an array reducer),
    kept as its oracle: ``(nodes, edges, boundary_ids)``."""
    tree, vertex_arc = compute_merge_tree(block_values, id_map=id_map)
    flat_ids = id_map.ravel()
    value_of = {int(i): float(v)
                for i, v in zip(flat_ids, block_values.ravel())}
    critical = set(tree.value)
    boundary_ids = [int(i) for i in flat_ids[boundary_mask.ravel()]]
    retained = critical | set(boundary_ids)
    on_arc = {}
    for i, arc in zip(flat_ids, vertex_arc.ravel()):
        if int(i) in retained and int(i) not in critical:
            on_arc.setdefault(int(arc), []).append(int(i))
    edges = []
    for upper in tree.value:
        prev = upper
        for gid in sorted(on_arc.get(upper, []),
                          key=lambda g: (value_of[g], g), reverse=True):
            edges.append((prev, gid))
            prev = gid
        if tree.parent[upper] is not None:
            edges.append((prev, int(tree.parent[upper])))
    return ({g: value_of[g] for g in retained}, edges,
            sorted(set(boundary_ids)))


class TestBoundaryTree:
    @given(data=st.data(), shape=st.tuples(*[st.integers(1, 7)] * 3),
           plateaus=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_equals_per_vertex_oracle(self, data, shape, plateaus):
        """Same nodes, same boundary ids and the same edges *in the same
        order* as the per-vertex loop, on smooth fields and on 8-level
        plateaus (where only the id tie-break orders a chain)."""
        procs = tuple(data.draw(st.integers(1, n)) for n in shape)
        d = BlockDecomposition3D(shape, procs)
        f = _blobby_field(shape, 3, data.draw(st.integers(0, 2**16)))
        if plateaus:
            f = np.floor(8 * f / (f.max() + 1e-12)) / 8
        ids = global_id_array(shape)
        for b in d.blocks():
            mask = block_boundary_mask(b, shape)
            bt = compute_boundary_tree(f[b.slices], ids[b.slices], mask)
            nodes, edges, boundary_ids = _boundary_tree_by_loop(
                f[b.slices], ids[b.slices], mask)
            assert bt.nodes == nodes
            assert bt.edges == edges
            assert bt.boundary_ids == boundary_ids
            assert all(type(x) is int for e in bt.edges for x in e)
            assert all(type(k) is int and type(v) is float
                       for k, v in bt.nodes.items())
            assert bt.n_block_cells == b.n_cells

    def test_nodes_include_criticals_and_boundary(self):
        d = BlockDecomposition3D((8, 8, 8), (2, 1, 1))
        f = _random_field((8, 8, 8), 20)
        ids = global_id_array(d.global_shape)
        b = d.block(0)
        mask = block_boundary_mask(b, d.global_shape)
        bt = compute_boundary_tree(f[b.slices], ids[b.slices], mask)
        bt.validate()
        local_tree, _ = compute_merge_tree(f[b.slices], id_map=ids[b.slices])
        assert set(local_tree.value) <= set(bt.nodes)
        assert set(ids[b.slices][mask].tolist()) <= set(bt.nodes)

    def test_edges_descend(self):
        d = BlockDecomposition3D((6, 6, 6), (2, 1, 1))
        f = _blobby_field((6, 6, 6), 3, 21)
        ids = global_id_array(d.global_shape)
        b = d.block(1)
        bt = compute_boundary_tree(
            f[b.slices], ids[b.slices], block_boundary_mask(b, d.global_shape))
        bt.validate()  # includes the descending-edge check

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_boundary_tree(np.zeros((2, 2, 2)),
                                  np.arange(8).reshape(2, 2, 2),
                                  np.zeros((3, 3, 3), dtype=bool))

    def test_reduction_shrinks_interior(self):
        """For a smooth blob field the boundary tree is far smaller than
        the block — the whole point of the in-situ reduction."""
        d = BlockDecomposition3D((16, 16, 16), (2, 1, 1))
        f = _blobby_field((16, 16, 16), 4, 22)
        ids = global_id_array(d.global_shape)
        b = d.block(0)
        bt = compute_boundary_tree(
            f[b.slices], ids[b.slices], block_boundary_mask(b, d.global_shape))
        assert len(bt.nodes) < b.n_cells / 2
        assert bt.nbytes < b.n_cells * 8


class TestStreamingGlue:
    def test_vertex_before_edge_enforced(self):
        g = StreamingGlue()
        g.add_vertex(0, 1.0)
        with pytest.raises(KeyError):
            g.add_edge(0, 1)

    def test_duplicate_vertex_raises(self):
        g = StreamingGlue()
        g.add_vertex(0, 1.0)
        with pytest.raises(ValueError):
            g.add_vertex(0, 2.0)

    def test_self_edge_raises(self):
        g = StreamingGlue()
        g.add_vertex(0, 1.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_edge_budget_overflow_raises(self):
        g = StreamingGlue()
        g.add_vertex(0, 1.0, n_incident_edges=1)
        g.add_vertex(1, 2.0, n_incident_edges=1)
        g.add_vertex(2, 3.0, n_incident_edges=2)
        g.add_edge(0, 1)
        with pytest.raises(RuntimeError):
            g.add_edge(0, 2)

    def test_finalization_tracking(self):
        g = StreamingGlue()
        g.add_vertex(0, 1.0, n_incident_edges=1)
        g.add_vertex(1, 2.0, n_incident_edges=2)
        g.add_vertex(2, 3.0, n_incident_edges=1)
        assert not g.all_finalized()
        g.add_edge(0, 1)
        assert 0 in g.finalized and 1 not in g.finalized
        g.add_edge(1, 2)
        assert g.all_finalized()
        assert g.peak_live_vertices == 3

    def test_isolated_vertex_immediately_final(self):
        g = StreamingGlue()
        g.add_vertex(5, 1.0, n_incident_edges=0)
        assert 5 in g.finalized

    def test_simple_chain(self):
        g = StreamingGlue()
        for i, v in enumerate([5.0, 2.0, 1.0, 2.5, 4.0]):
            g.add_vertex(i, v)
        for i in range(4):
            g.add_edge(i, i + 1)
        tree = g.finalize()
        tree.validate()
        red = tree.reduced()
        assert sorted(red.leaves()) == [0, 4]
        assert red.saddles() == [2]

    @given(st.integers(0, 10_000), st.integers(2, 14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_streaming_matches_batch_any_order(self, seed, n, data):
        """Streaming insertion in random edge order == batch union-find."""
        rng = np.random.default_rng(seed)
        values = {i: float(v) for i, v in enumerate(rng.random(n))}
        # random connected-ish graph: spanning chain + extra random edges
        edges = [(i, i + 1) for i in range(n - 1)]
        n_extra = int(rng.integers(0, n))
        for _ in range(n_extra):
            u, v = rng.integers(0, n, size=2)
            if u != v and (min(u, v), max(u, v)) not in {tuple(sorted(e)) for e in edges}:
                edges.append((int(u), int(v)))
        order = data.draw(st.permutations(range(len(edges))))

        g = StreamingGlue()
        for vid, val in values.items():
            g.add_vertex(vid, val)
        for k in order:
            g.add_edge(*edges[k])
        streamed = g.finalize()
        batch = compute_merge_tree_graph(values, edges)
        streamed.validate()
        assert streamed.reduced().signature() == batch.reduced().signature()


class TestDistributedEqualsGlobal:
    """THE invariant: the hybrid pipeline reproduces the global tree."""

    @pytest.mark.parametrize("proc_grid", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_blobby_fields(self, proc_grid):
        shape = (12, 10, 8)
        f = _blobby_field(shape, 6, seed=hash(proc_grid) % 1000)
        decomp = BlockDecomposition3D(shape, proc_grid)
        glued, _bts = distributed_merge_tree(f, decomp)
        global_tree, _ = compute_merge_tree(f)
        assert glued.reduced().signature() == global_tree.reduced().signature()

    @given(st.integers(0, 10_000),
           st.sampled_from([(2, 1, 1), (1, 3, 1), (2, 2, 1), (2, 2, 2)]))
    @settings(max_examples=25, deadline=None)
    def test_property_random_fields(self, seed, proc_grid):
        shape = (6, 6, 5)
        f = _random_field(shape, seed)
        decomp = BlockDecomposition3D(shape, proc_grid)
        glued, _ = distributed_merge_tree(f, decomp)
        global_tree, _ = compute_merge_tree(f)
        assert glued.reduced().signature() == global_tree.reduced().signature()

    def test_plateau_field(self):
        """Ties everywhere: the global-id tie-break must keep blocks
        consistent with the global sweep."""
        shape = (6, 6, 6)
        f = np.ones(shape)
        decomp = BlockDecomposition3D(shape, (2, 2, 1))
        glued, _ = distributed_merge_tree(f, decomp)
        global_tree, _ = compute_merge_tree(f)
        assert glued.reduced().signature() == global_tree.reduced().signature()

    def test_uneven_decomposition(self):
        shape = (11, 7, 9)
        f = _blobby_field(shape, 5, seed=77)
        decomp = BlockDecomposition3D(shape, (3, 2, 2))
        glued, _ = distributed_merge_tree(f, decomp)
        global_tree, _ = compute_merge_tree(f)
        assert glued.reduced().signature() == global_tree.reduced().signature()

    def test_movement_size_much_smaller_than_raw(self):
        """Table II's point: intermediate topology data (~87 MB) is orders
        of magnitude below the raw field (~98.5 GB)."""
        shape = (24, 24, 24)
        f = _blobby_field(shape, 8, seed=5)
        decomp = BlockDecomposition3D(shape, (2, 1, 1))
        _glued, bts = distributed_merge_tree(f, decomp)
        moved = sum(bt.nbytes for bt in bts)
        assert moved < f.nbytes / 2

    def test_field_shape_mismatch_raises(self):
        decomp = BlockDecomposition3D((4, 4, 4), (2, 1, 1))
        with pytest.raises(ValueError):
            compute_block_boundary_trees(np.zeros((5, 5, 5)), decomp)

    def test_glue_finalizes_everything(self):
        shape = (8, 8, 8)
        f = _blobby_field(shape, 4, seed=9)
        decomp = BlockDecomposition3D(shape, (2, 2, 1))
        from repro.analysis.topology.distributed import glue_boundary_trees
        bts = compute_block_boundary_trees(f, decomp)
        glue = StreamingGlue()
        glue_boundary_trees(bts, cross_block_edges(decomp), glue)
        assert glue.all_finalized()

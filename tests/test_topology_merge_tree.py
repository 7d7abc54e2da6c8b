"""Tests for the batch merge-tree algorithm and the MergeTree structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.topology import MergeTree, compute_merge_tree, sweep_order
from repro.analysis.topology.merge_tree import DisjointSet
from repro.analysis.topology.stream_merge import compute_merge_tree_graph


class TestDisjointSet:
    def test_initially_singletons(self):
        ds = DisjointSet(4)
        assert [ds.find(i) for i in range(4)] == [0, 1, 2, 3]

    def test_union_and_find(self):
        ds = DisjointSet(4)
        ds.union_into(0, 1)
        ds.union_into(1, 2)
        assert ds.find(0) == ds.find(1) == ds.find(2) == 2
        assert ds.find(3) == 3

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            DisjointSet(-1)


class TestSweepOrder:
    def test_descending_values(self):
        v = np.array([3.0, 1.0, 2.0])
        assert sweep_order(v).tolist() == [0, 2, 1]

    def test_ties_broken_by_index_descending(self):
        v = np.array([1.0, 1.0, 1.0])
        assert sweep_order(v).tolist() == [2, 1, 0]


class TestMergeTreeStructure:
    def _tree(self):
        t = MergeTree()
        t.add_node(10, 5.0)   # max
        t.add_node(20, 4.0)   # max
        t.add_node(5, 2.0)    # saddle
        t.set_parent(10, 5)
        t.set_parent(20, 5)
        return t

    def test_basic_queries(self):
        t = self._tree()
        assert t.leaves() == [10, 20]
        assert t.saddles() == [5]
        assert t.roots() == [5]
        assert t.arcs() == [(10, 5), (20, 5)]
        assert len(t) == 3

    def test_duplicate_node_raises(self):
        t = self._tree()
        with pytest.raises(ValueError):
            t.add_node(10, 1.0)

    def test_parent_must_be_lower(self):
        t = MergeTree()
        t.add_node(1, 1.0)
        t.add_node(2, 2.0)
        with pytest.raises(ValueError):
            t.set_parent(1, 2)  # 1 is lower than 2

    def test_self_parent_raises(self):
        t = MergeTree()
        t.add_node(1, 1.0)
        with pytest.raises(ValueError):
            t.set_parent(1, 1)

    def test_reparent_moves_child(self):
        t = self._tree()
        t.add_node(3, 1.0)
        t.set_parent(5, 3)
        t.set_parent(20, 3)  # move 20 from 5 to 3
        assert t.children(5) == [10]
        assert sorted(t.children(3)) == [5, 20]

    def test_validate_passes_on_good_tree(self):
        self._tree().validate()

    def test_equal_values_ordered_by_id(self):
        t = MergeTree()
        t.add_node(1, 2.0)
        t.add_node(2, 2.0)
        t.set_parent(2, 1)  # id 2 > id 1 at equal value, so 2 is "higher"
        with pytest.raises(ValueError):
            t.set_parent(1, 2)

    @staticmethod
    def _by_calls(ids, values, child, parent):
        t = MergeTree()
        for i, v in zip(ids, values):
            t.add_node(i, v)
        for c, p in zip(child, parent):
            t.set_parent(ids[c], ids[p])
        return t

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_arrays_equals_one_call_per_node_and_arc(self, levels, data):
        """Any forest over plateau values, arcs in any order: the bulk
        constructor leaves the tree the per-call path leaves, down to
        node order and child order."""
        ids = data.draw(st.permutations(range(3, 3 + len(levels))))
        values = [float(v) for v in levels]
        by_height = sorted(range(len(ids)),
                           key=lambda k: (values[k], ids[k]), reverse=True)
        child, parent = [], []
        for at, k in enumerate(by_height[:-1]):
            lower = data.draw(st.none()
                              | st.sampled_from(by_height[at + 1:]))
            if lower is not None:
                child.append(k)
                parent.append(lower)
        arc_order = data.draw(st.permutations(range(len(child))))
        child = [child[j] for j in arc_order]
        parent = [parent[j] for j in arc_order]
        a = MergeTree.from_arrays(np.array(ids), np.array(values),
                                  np.array(child, dtype=np.int64),
                                  np.array(parent, dtype=np.int64))
        b = self._by_calls(ids, values, child, parent)
        assert list(a.value.items()) == list(b.value.items())
        assert list(a.parent.items()) == list(b.parent.items())
        assert list(a._children.items()) == list(b._children.items())
        assert all(type(k) is int and type(v) is float
                   for k, v in a.value.items())
        a.validate()

    @pytest.mark.parametrize("ids,values,child,parent,error", [
        ([1, 2, 1], [3.0, 2.0, 1.0], [0], [1], "node 1 already in tree"),
        ([1, 2], [1.0, 2.0], [0], [1], "parent 2 .* must be lower"),
        ([1, 2], [2.0, 2.0], [0], [1], "parent 2 .* must be lower"),
        ([1, 2], [2.0, 1.0], [0], [0], "node 1 cannot parent itself"),
        ([1, 2], [float("nan"), 1.0], [0], [1], "must be lower"),
    ])
    def test_from_arrays_raises_what_the_calls_raise(self, ids, values, child,
                                                     parent, error):
        with pytest.raises(ValueError, match=error):
            self._by_calls(ids, values, child, parent)
        with pytest.raises(ValueError, match=error):
            MergeTree.from_arrays(np.array(ids), np.array(values),
                                  np.array(child), np.array(parent))

    def test_from_arrays_reparents_like_the_calls(self):
        """A child named twice moves to its second parent."""
        ids, values = [9, 8, 7], [3.0, 2.0, 1.0]
        a = MergeTree.from_arrays(np.array(ids), np.array(values),
                                  np.array([0, 0]), np.array([1, 2]))
        b = self._by_calls(ids, values, [0, 0], [1, 2])
        assert a.parent == b.parent == {9: 7, 8: None, 7: None}
        assert a._children == b._children

    def test_reduced_contracts_chains(self):
        t = MergeTree()
        # max(4) -> regular(3) -> saddle? no: chain max->r->r->root
        t.add_node(40, 4.0)
        t.add_node(30, 3.0)
        t.add_node(20, 2.0)
        t.set_parent(40, 30)
        t.set_parent(30, 20)
        red = t.reduced()
        # Whole chain below the single max is dangling: only the max remains.
        assert sorted(red.value) == [40]

    def test_reduced_keeps_saddles(self):
        t = self._tree()
        t.add_node(2, 1.0)   # regular below the saddle
        t.set_parent(5, 2)
        red = t.reduced()
        assert sorted(red.value) == [5, 10, 20]
        assert red.roots() == [5]


class TestComputeMergeTree1D:
    """Hand-checkable 1-D cases (a 1-D array is a valid grid)."""

    def test_single_peak(self):
        f = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        tree, arc = compute_merge_tree(f)
        assert tree.leaves() == [2]
        assert tree.saddles() == []
        assert len(tree) == 1
        np.testing.assert_array_equal(arc, [2, 2, 2, 2, 2])

    def test_two_peaks_one_saddle(self):
        #      5   1   4          peaks at 0 (5.0) and 4 (4.0), saddle at 2
        f = np.array([5.0, 2.0, 1.0, 2.0, 4.0])
        tree, arc = compute_merge_tree(f)
        assert sorted(tree.leaves()) == [0, 4]
        assert tree.saddles() == [2]
        assert tree.parent[0] == 2 and tree.parent[4] == 2
        assert tree.value[2] == 1.0
        # vertices 1 and 3 lie on the arcs of their nearest peaks
        assert arc[1] == 0 and arc[3] == 4

    def test_three_peaks_merge_order(self):
        # peaks 6, 5, 4 with saddles 2 and 1: higher saddle merges first
        f = np.array([6.0, 2.0, 5.0, 1.0, 4.0])
        tree, _ = compute_merge_tree(f)
        assert sorted(tree.leaves()) == [0, 2, 4]
        assert sorted(tree.saddles()) == [1, 3]
        assert tree.parent[0] == 1 and tree.parent[2] == 1
        assert tree.parent[1] == 3 and tree.parent[4] == 3
        assert tree.roots() == [3]

    def test_monotone_field_single_node(self):
        f = np.arange(10.0)
        tree, arc = compute_merge_tree(f)
        assert tree.leaves() == [9]
        assert np.all(arc == 9)

    def test_plateau_deterministic(self):
        f = np.array([1.0, 1.0, 1.0, 1.0])
        tree, _ = compute_merge_tree(f)
        # Highest id wins ties: single max at vertex 3.
        assert tree.leaves() == [3]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compute_merge_tree(np.array([]))


class TestComputeMergeTree3D:
    def test_two_gaussian_blobs(self):
        grid = np.mgrid[0:16, 0:16, 0:8].astype(float)
        x, y, z = grid
        f = (np.exp(-((x - 4) ** 2 + (y - 4) ** 2 + (z - 4) ** 2) / 8.0)
             + 0.8 * np.exp(-((x - 12) ** 2 + (y - 12) ** 2 + (z - 4) ** 2) / 8.0))
        tree, _ = compute_merge_tree(f)
        red = tree.reduced()
        assert len(red.leaves()) == 2
        assert len(red.saddles()) == 1
        tree.validate()

    def test_leaf_count_equals_discrete_maxima(self):
        """Every leaf is a 6-connected local maximum and vice versa."""
        rng = np.random.default_rng(10)
        f = rng.random((7, 6, 5))
        tree, _ = compute_merge_tree(f)
        # count strict 6-neighborhood maxima by brute force
        n_max = 0
        for idx in np.ndindex(f.shape):
            val = f[idx]
            is_max = True
            for axis in range(3):
                for d in (-1, 1):
                    j = list(idx)
                    j[axis] += d
                    if 0 <= j[axis] < f.shape[axis] and f[tuple(j)] > val:
                        is_max = False
            if is_max:
                n_max += 1
        assert len(tree.leaves()) == n_max

    def test_saddle_count_invariant(self):
        """A merge tree over one component has exactly leaves-1 merges
        (counting child multiplicity at saddles)."""
        rng = np.random.default_rng(11)
        f = rng.random((6, 6, 6))
        tree, _ = compute_merge_tree(f)
        merges = sum(len(tree.children(s)) - 1 for s in tree.saddles())
        assert merges == len(tree.leaves()) - 1

    def test_vertex_arc_values_dominate(self):
        """Each vertex's arc node has value >= the vertex (sweep order)."""
        rng = np.random.default_rng(12)
        f = rng.random((5, 5, 5))
        tree, arc = compute_merge_tree(f)
        flat = f.ravel()
        for v in range(flat.size):
            node = int(arc.ravel()[v])
            assert (tree.value[node], node) >= (flat[v], v)

    def test_id_map_relabels(self):
        f = np.random.default_rng(13).random((4, 4, 4))
        ids = (np.arange(64) + 1000).reshape(4, 4, 4)
        tree, arc = compute_merge_tree(f, id_map=ids)
        assert all(n >= 1000 for n in tree.value)
        assert arc.min() >= 1000

    def test_id_map_must_be_unique(self):
        f = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            compute_merge_tree(f, id_map=np.zeros((2, 2, 2), dtype=int))

    def test_invariance_to_value_shift(self):
        """Merge tree structure is invariant under monotone shifts."""
        rng = np.random.default_rng(14)
        f = rng.random((5, 5, 4))
        t1, _ = compute_merge_tree(f)
        t2, _ = compute_merge_tree(f + 100.0)
        assert [sorted(t1.leaves()), sorted(t1.saddles())] == \
               [sorted(t2.leaves()), sorted(t2.saddles())]
        assert t1.arcs() == t2.arcs()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_structure_valid_random_fields(self, seed):
        f = np.random.default_rng(seed).random((4, 5, 3))
        tree, arc = compute_merge_tree(f)
        tree.validate()
        assert len(tree.roots()) == 1  # grid is connected
        assert arc.shape == f.shape


class TestGraphReference:
    def test_path_graph_matches_1d_grid(self):
        f = np.array([5.0, 2.0, 1.0, 2.0, 4.0])
        grid_tree, _ = compute_merge_tree(f)
        values = {i: float(v) for i, v in enumerate(f)}
        edges = [(i, i + 1) for i in range(4)]
        graph_tree = compute_merge_tree_graph(values, edges)
        assert graph_tree.reduced().signature() == grid_tree.reduced().signature()

    def test_augmented_has_every_vertex(self):
        values = {0: 3.0, 1: 1.0, 2: 2.0}
        tree = compute_merge_tree_graph(values, [(0, 1), (1, 2)])
        assert sorted(tree.value) == [0, 1, 2]
        tree.validate()

    def test_disconnected_graph_two_roots(self):
        values = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        tree = compute_merge_tree_graph(values, [(0, 1), (2, 3)])
        assert len(tree.roots()) == 2

    def test_unknown_vertex_in_edge_raises(self):
        with pytest.raises(KeyError):
            compute_merge_tree_graph({0: 1.0}, [(0, 99)])

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            compute_merge_tree_graph({}, [])

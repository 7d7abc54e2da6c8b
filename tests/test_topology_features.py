"""Tests for persistence simplification, segmentation (Fig. 3), and
feature tracking (Fig. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.topology import (
    compute_merge_tree,
    persistence_pairs,
    segment_superlevel,
    simplify,
    track_features,
)
from repro.analysis.topology.segmentation import Segmentation
from repro.analysis.topology.simplify import (
    representative_maxima,
    surviving_maximum_map,
)
from repro.analysis.topology.tracking import jaccard, overlap_matrix


def _two_blob_field(shape=(16, 16, 8), amp2=0.8):
    x, y, z = np.mgrid[0:shape[0], 0:shape[1], 0:shape[2]].astype(float)
    f = (np.exp(-((x - 4) ** 2 + (y - 4) ** 2 + (z - 4) ** 2) / 6.0)
         + amp2 * np.exp(-((x - 12) ** 2 + (y - 12) ** 2 + (z - 4) ** 2) / 6.0))
    return f


def _moving_blob(shape, center, width=2.0, amp=1.0):
    coords = np.stack(np.mgrid[[slice(0, s) for s in shape]]).astype(float)
    d2 = sum((coords[a] - center[a]) ** 2 for a in range(3))
    return amp * np.exp(-d2 / (2 * width * width))


class TestPersistence:
    def test_two_peaks_pairing(self):
        f = np.array([5.0, 2.0, 1.0, 2.0, 4.0])
        tree, _ = compute_merge_tree(f)
        pairs = persistence_pairs(tree)
        by_max = {p.maximum: p for p in pairs}
        assert by_max[0].saddle is None                 # global max
        assert by_max[0].persistence == float("inf")
        assert by_max[4].saddle == 2                    # lower peak dies at saddle
        assert by_max[4].persistence == pytest.approx(3.0)

    def test_every_leaf_paired_exactly_once(self):
        f = np.random.default_rng(30).random((6, 6, 6))
        tree, _ = compute_merge_tree(f)
        pairs = persistence_pairs(tree)
        assert sorted(p.maximum for p in pairs) == tree.leaves()

    def test_persistence_nonnegative(self):
        f = np.random.default_rng(31).random((5, 5, 5))
        tree, _ = compute_merge_tree(f)
        for p in persistence_pairs(tree):
            assert p.persistence >= 0.0

    def test_elder_rule_survivor_is_higher(self):
        """At every saddle the surviving max is higher than the dying ones."""
        f = np.random.default_rng(32).random((6, 5, 4))
        tree, _ = compute_merge_tree(f)
        rep = representative_maxima(tree)
        for p in persistence_pairs(tree):
            if p.saddle is None:
                continue
            survivor = rep[p.saddle]
            assert (tree.value[survivor], survivor) > (tree.value[p.maximum], p.maximum)

    def test_pairs_sorted_by_persistence(self):
        f = np.random.default_rng(33).random((6, 6, 4))
        tree, _ = compute_merge_tree(f)
        pers = [p.persistence for p in persistence_pairs(tree)]
        assert pers == sorted(pers, reverse=True)


class TestSimplify:
    def test_removes_weak_peak(self):
        f = _two_blob_field(amp2=0.3)  # weak second blob
        tree, _ = compute_merge_tree(f)
        assert len(tree.reduced().leaves()) >= 2
        simple = simplify(tree, threshold=0.5)
        assert len(simple.leaves()) == 1

    def test_keeps_strong_peaks(self):
        f = _two_blob_field(amp2=0.8)
        tree, _ = compute_merge_tree(f)
        simple = simplify(tree, threshold=0.1)
        assert len(simple.leaves()) == 2

    def test_threshold_zero_keeps_all(self):
        f = np.random.default_rng(34).random((5, 5, 5))
        tree, _ = compute_merge_tree(f)
        simple = simplify(tree, 0.0)
        assert sorted(simple.leaves()) == tree.reduced().leaves()

    def test_huge_threshold_leaves_global_max(self):
        f = np.random.default_rng(35).random((6, 6, 6))
        tree, _ = compute_merge_tree(f)
        simple = simplify(tree, 1e9)
        assert len(simple.leaves()) == 1
        gmax = max(tree.leaves(), key=lambda n: (tree.value[n], n))
        assert simple.leaves() == [gmax]

    def test_negative_threshold_raises(self):
        f = np.zeros((2, 2, 2))
        tree, _ = compute_merge_tree(f)
        with pytest.raises(ValueError):
            simplify(tree, -1.0)

    def test_monotone_in_threshold(self):
        """Higher thresholds never yield more features."""
        f = np.random.default_rng(36).random((8, 8, 6))
        tree, _ = compute_merge_tree(f)
        counts = [len(simplify(tree, t).leaves())
                  for t in (0.0, 0.1, 0.3, 0.6, 1.1)]
        assert counts == sorted(counts, reverse=True)

    def test_result_is_valid_tree(self):
        f = np.random.default_rng(37).random((7, 6, 5))
        tree, _ = compute_merge_tree(f)
        simple = simplify(tree, 0.2)
        simple.validate()

    def test_surviving_map_identity_when_zero(self):
        f = np.random.default_rng(38).random((5, 5, 4))
        tree, _ = compute_merge_tree(f)
        m = surviving_maximum_map(tree, 0.0)
        assert all(k == v for k, v in m.items())

    def test_surviving_map_targets_survive(self):
        f = np.random.default_rng(39).random((6, 6, 6))
        tree, _ = compute_merge_tree(f)
        m = surviving_maximum_map(tree, 0.3)
        kept = set(simplify(tree, 0.3).leaves())
        assert set(m.values()) <= kept


class TestSegmentation:
    def test_two_blob_labels(self):
        f = _two_blob_field()
        seg = segment_superlevel(f, threshold=0.3)
        assert seg.n_features == 2
        # the two blob centers carry different labels
        assert seg.labels[4, 4, 4] != seg.labels[12, 12, 4]
        assert seg.labels[4, 4, 4] >= 0
        # far corner is background
        assert seg.labels[0, 15, 7] == -1

    def test_low_threshold_merges_components(self):
        f = _two_blob_field()
        seg = segment_superlevel(f, threshold=1e-4)
        assert seg.n_features == 1

    def test_labels_are_representative_maxima(self):
        f = _two_blob_field()
        tree, arc = compute_merge_tree(f)
        seg = segment_superlevel(f, 0.3, tree=tree, vertex_arc=arc)
        for label in seg.features:
            assert label in tree.leaves()

    def test_components_match_bruteforce_connectivity(self):
        """Feature regions == 6-connected components of the superlevel set."""
        from scipy import ndimage
        f = np.random.default_rng(40).random((8, 8, 8))
        tau = 0.7
        seg = segment_superlevel(f, tau)
        ref_labels, n_ref = ndimage.label(f >= tau)
        assert seg.n_features == n_ref
        # bijection between label sets
        for ref_id in range(1, n_ref + 1):
            ours = np.unique(seg.labels[ref_labels == ref_id])
            assert len(ours) == 1 and ours[0] >= 0

    def test_persistence_merging_reduces_feature_count(self):
        f = _two_blob_field(amp2=0.4) + 0.02 * np.random.default_rng(41).random((16, 16, 8))
        plain = segment_superlevel(f, 0.25)
        merged = segment_superlevel(f, 0.25, min_persistence=0.5)
        assert merged.n_features <= plain.n_features
        # same cells are foreground either way
        np.testing.assert_array_equal(plain.labels >= 0, merged.labels >= 0)

    def test_feature_summaries(self):
        f = _two_blob_field()
        seg = segment_superlevel(f, 0.3)
        for feat in seg.features.values():
            assert feat.n_cells > 0
            assert feat.max_value >= 0.3
            assert len(feat.centroid) == 3

    def test_mask_roundtrip(self):
        f = _two_blob_field()
        seg = segment_superlevel(f, 0.3)
        label = next(iter(seg.features))
        assert seg.mask(label).sum() == seg.features[label].n_cells
        with pytest.raises(KeyError):
            seg.mask(-5)

    def test_threshold_above_max_gives_empty(self):
        f = _two_blob_field()
        seg = segment_superlevel(f, f.max() + 1.0)
        assert seg.n_features == 0
        assert (seg.labels == -1).all()

    @given(st.integers(0, 1000), st.floats(0.2, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_property_label_cells_above_threshold(self, seed, tau):
        f = np.random.default_rng(seed).random((5, 6, 4))
        seg = segment_superlevel(f, tau)
        np.testing.assert_array_equal(seg.labels >= 0, f >= tau)


class TestTracking:
    def _moving_sequence(self, n_steps=5, shape=(20, 12, 8)):
        """A blob moving +x by one cell per step (a Fig.-1 style feature)."""
        segs = []
        for t in range(n_steps):
            f = _moving_blob(shape, (4.0 + t, 6.0, 4.0))
            segs.append(segment_superlevel(f, 0.3))
        return segs

    def test_overlap_matrix_diagonal_for_identical(self):
        seg = self._moving_sequence(1)[0]
        om = overlap_matrix(seg, seg)
        for (a, b), count in om.items():
            assert a == b
            assert count == seg.features[a].n_cells

    def test_overlap_matrix_shape_mismatch(self):
        a = self._moving_sequence(1)[0]
        f = _moving_blob((4, 4, 4), (2, 2, 2))
        b = segment_superlevel(f, 0.3)
        with pytest.raises(ValueError):
            overlap_matrix(a, b)

    def test_single_track_through_motion(self):
        """The moving blob is one feature tracked across all 5 steps."""
        segs = self._moving_sequence(5)
        tracks = track_features(segs)
        long_tracks = [t for t in tracks if t.lifetime == 5]
        assert len(long_tracks) == 1
        assert long_tracks[0].steps == [0, 1, 2, 3, 4]

    def test_fig1_overlap_decays_with_lag(self):
        """Fig. 1's point: consecutive steps overlap strongly; step 1 vs
        step 5 overlap is smaller but nonzero (trackable only at high
        temporal resolution)."""
        segs = self._moving_sequence(5)
        track = [t for t in track_features(segs) if t.lifetime == 5][0]
        j_consecutive = jaccard(segs[0], track.labels[0], segs[1], track.labels[1])
        j_first_last = jaccard(segs[0], track.labels[0], segs[4], track.labels[4])
        assert j_consecutive > j_first_last > 0.0

    def test_coarse_sampling_loses_feature(self):
        """Sampling every 8th step: the blob has moved past itself — no
        overlap, the track breaks (the paper's stride-400 failure mode)."""
        shape = (20, 12, 8)
        seg_t0 = segment_superlevel(_moving_blob(shape, (4.0, 6.0, 4.0)), 0.3)
        seg_t8 = segment_superlevel(_moving_blob(shape, (12.0, 6.0, 4.0)), 0.3)
        tracks = track_features([seg_t0, seg_t8])
        assert all(t.lifetime == 1 for t in tracks)
        assert len(tracks) == 2

    def test_birth_and_death(self):
        shape = (16, 10, 6)
        empty = segment_superlevel(np.zeros(shape), 0.5)
        blob = segment_superlevel(_moving_blob(shape, (8.0, 5.0, 3.0)), 0.3)
        tracks = track_features([empty, blob, blob, empty])
        assert len(tracks) == 1
        assert tracks[0].birth == 1 and tracks[0].death == 2

    def test_two_features_tracked_independently(self):
        shape = (24, 12, 8)
        segs = []
        for t in range(3):
            f = (_moving_blob(shape, (4.0 + t, 6.0, 4.0))
                 + _moving_blob(shape, (18.0 - t, 6.0, 4.0)))
            segs.append(segment_superlevel(f, 0.3))
        tracks = track_features(segs)
        assert len([t for t in tracks if t.lifetime == 3]) == 2

    def test_custom_steps_recorded(self):
        segs = self._moving_sequence(3)
        tracks = track_features(segs, steps=[100, 110, 120])
        t = [t for t in tracks if t.lifetime == 3][0]
        assert t.steps == [100, 110, 120]

    def test_validation(self):
        segs = self._moving_sequence(2)
        with pytest.raises(ValueError):
            track_features(segs, steps=[0])

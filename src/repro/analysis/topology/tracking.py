"""Overlap-based feature tracking across timesteps (Fig. 1).

The paper's motivating figure tracks a small vortical structure over five
consecutive steps and shows the overlap between the first and fifth — the
"connectivity indicators [that] are lost with conventional post-processing
when the temporal length-scale of features is shorter than the frequency
at which data is written to disk."

Tracking is the standard spatial-overlap association: features in
consecutive segmentations are linked when their cell sets overlap, with
greedy resolution by overlap size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.topology.segmentation import Segmentation


def overlap_matrix(a: Segmentation, b: Segmentation) -> dict[tuple[int, int], int]:
    """Cell-count overlaps between features of two segmentations."""
    if a.labels.shape != b.labels.shape:
        raise ValueError(
            f"segmentation shapes differ: {a.labels.shape} vs {b.labels.shape}")
    both = (a.labels >= 0) & (b.labels >= 0)
    la = a.labels[both]
    lb = b.labels[both]
    out: dict[tuple[int, int], int] = {}
    if la.size:
        pairs = np.stack([la, lb], axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        for (x, y), c in zip(uniq, counts):
            out[(int(x), int(y))] = int(c)
    return out


def jaccard(a: Segmentation, label_a: int, b: Segmentation, label_b: int) -> float:
    """Jaccard index of two feature regions (the Fig.-1 overlap measure)."""
    ma = a.mask(label_a)
    mb = b.mask(label_b)
    union = np.count_nonzero(ma | mb)
    if union == 0:
        return 0.0
    return np.count_nonzero(ma & mb) / union


@dataclass
class FeatureTrack:
    """One feature's life: (timestep, label) observations in step order."""

    track_id: int
    steps: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    @property
    def birth(self) -> int:
        return self.steps[0]

    @property
    def death(self) -> int:
        return self.steps[-1]

    @property
    def lifetime(self) -> int:
        """Number of steps the feature was observed."""
        return len(self.steps)


def track_features(segmentations: list[Segmentation],
                   steps: list[int] | None = None) -> list[FeatureTrack]:
    """Greedy max-overlap association across a segmentation sequence.

    Each feature at step t links to at most one feature at step t+1 and
    vice versa (largest overlaps first). Unlinked features start new
    tracks; tracks without a successor end.
    """
    if steps is None:
        steps = list(range(len(segmentations)))
    if len(steps) != len(segmentations):
        raise ValueError("steps and segmentations must have equal length")

    tracks: list[FeatureTrack] = []
    #: feature label at current step -> owning track
    current: dict[int, FeatureTrack] = {}

    for i, seg in enumerate(segmentations):
        if i == 0:
            for label in seg.features:
                t = FeatureTrack(track_id=len(tracks))
                t.steps.append(steps[0])
                t.labels.append(label)
                tracks.append(t)
                current[label] = t
            continue

        prev_seg = segmentations[i - 1]
        overlaps = overlap_matrix(prev_seg, seg)
        # Greedy: biggest overlaps first; deterministic tie-break on labels.
        order = sorted(overlaps.items(), key=lambda kv: (-kv[1], kv[0]))
        linked_prev: set[int] = set()
        linked_next: set[int] = set()
        next_current: dict[int, FeatureTrack] = {}
        for (pa, pb), _count in order:
            if pa in linked_prev or pb in linked_next:
                continue
            track = current.get(pa)
            if track is None:
                continue
            track.steps.append(steps[i])
            track.labels.append(pb)
            linked_prev.add(pa)
            linked_next.add(pb)
            next_current[pb] = track
        for label in seg.features:
            if label not in linked_next:
                t = FeatureTrack(track_id=len(tracks))
                t.steps.append(steps[i])
                t.labels.append(label)
                tracks.append(t)
                next_current[label] = t
        current = next_current
    return tracks

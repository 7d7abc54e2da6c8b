"""Numerically stable centered-moment accumulators (Pébay formulas).

The in-situ *learn* stage computes, per rank and per variable, the centered
aggregates ``(n, min, max, mean, M2, M3, M4)`` where
``Mk = sum (x - mean)^k``. Aggregates from different ranks merge with the
pairwise update formulas of [21], which are associative and numerically
stable — the property that makes learn a map-reduce and lets the hybrid
deployment ship tiny partial models instead of raw data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import kernel


@dataclass
class MomentAccumulator:
    """Centered aggregates up to fourth order for one variable."""

    n: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    mean: float = 0.0
    M2: float = 0.0
    M3: float = 0.0
    M4: float = 0.0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_data(cls, data: np.ndarray) -> "MomentAccumulator":
        """Accumulate a data chunk (vectorised single sweep)."""
        x = np.asarray(data, dtype=np.float64).ravel()
        if x.size == 0:
            return cls()
        if not np.all(np.isfinite(x)):
            raise ValueError("moment accumulation requires finite data")
        mean = float(np.mean(x))
        d = x - mean
        d2 = d * d
        return cls(
            n=int(x.size),
            minimum=float(np.min(x)),
            maximum=float(np.max(x)),
            mean=mean,
            M2=float(np.sum(d2)),
            M3=float(np.sum(d2 * d)),
            M4=float(np.sum(d2 * d2)),
        )

    # -- pairwise merge (the communication kernel of *learn*) ---------------------

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Combine two accumulators; associative and order-insensitive."""
        if other.n == 0:
            return MomentAccumulator(**vars(self))
        if self.n == 0:
            return MomentAccumulator(**vars(other))
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        delta2 = delta * delta

        mean = self.mean + delta * nb / n
        M2 = self.M2 + other.M2 + delta2 * na * nb / n
        M3 = (self.M3 + other.M3
              + delta * delta2 * na * nb * (na - nb) / (n * n)
              + 3.0 * delta * (na * other.M2 - nb * self.M2) / n)
        M4 = (self.M4 + other.M4
              + delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
              + 6.0 * delta2 * (na * na * other.M2 + nb * nb * self.M2) / (n * n)
              + 4.0 * delta * (na * other.M3 - nb * self.M3) / n)
        return MomentAccumulator(
            n=n,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            mean=mean, M2=M2, M3=M3, M4=M4,
        )

    # -- serialisation (what the hybrid deployment moves over the wire) ------------

    PACKED_DOUBLES = 7  # n, min, max, mean, M2, M3, M4

    def pack(self) -> np.ndarray:
        """Serialise to a 7-double vector (the wire format)."""
        return np.array([float(self.n), self.minimum, self.maximum,
                         self.mean, self.M2, self.M3, self.M4], dtype=np.float64)

    @classmethod
    def unpack(cls, vec: np.ndarray) -> "MomentAccumulator":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (cls.PACKED_DOUBLES,):
            raise ValueError(f"expected {cls.PACKED_DOUBLES} doubles, got {vec.shape}")
        return cls(n=int(vec[0]), minimum=float(vec[1]), maximum=float(vec[2]),
                   mean=float(vec[3]), M2=float(vec[4]), M3=float(vec[5]),
                   M4=float(vec[6]))


#: Batch only small-to-medium blocks — measured: beyond ~2048 elements
#: the stacked temporaries blow the cache while the per-block reference
#: (itself vectorised) stays resident, so batching loses. Module-level
#: so tests can force either path.
LEARN_BLOCK_MAX_ELEMS = 2048


def _learn_blocks_reference(blocks: list[np.ndarray]
                            ) -> list[MomentAccumulator]:
    """:func:`learn_blocks`' oracle: one
    :meth:`MomentAccumulator.from_data` per block."""
    return [MomentAccumulator.from_data(b) for b in blocks]


@kernel("statistics.learn_blocks", reference=_learn_blocks_reference)
def learn_blocks(blocks: list[np.ndarray]) -> list[MomentAccumulator]:
    """The batched learn pass: one accumulator per data block.

    Same-size blocks of up to ``LEARN_BLOCK_MAX_ELEMS`` elements are
    stacked and every block's ``(n, min, max, mean, M2, M3, M4)`` comes
    from shared axis-wise array passes — per-row sums use the same
    pairwise summation as the per-block reference, so the aggregates are
    bit-identical. Ragged, empty, large or non-finite blocks run the
    reference, which raises for the first offending block.
    """
    arrs = [np.asarray(b, dtype=np.float64).ravel() for b in blocks]
    if not arrs:
        return []
    m = arrs[0].size
    if (m == 0 or m > LEARN_BLOCK_MAX_ELEMS
            or any(a.size != m for a in arrs)):
        return _learn_blocks_reference(blocks)
    stack = np.stack(arrs)
    if not np.all(np.isfinite(stack)):
        return _learn_blocks_reference(blocks)
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
    """Vectorized :meth:`MomentAccumulator.merge` over packed rows.

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
    """Pairwise tree fold over axis 0 with the reference's pairing —
    (0,1), (2,3), …, odd tail carried — one elementwise merge per level."""
    while arr.shape[0] > 1:
        m = arr.shape[0]
        even = m - (m % 2)
        merged = _pebay_pair(arr[0:even:2], arr[1:even:2])
        if m % 2:
            merged = np.concatenate([merged, arr[-1:]])
        arr = merged
    return arr[0]


def merge_accumulators(accs: list[MomentAccumulator]) -> MomentAccumulator:
    """Pairwise (tree-order) merge of many accumulators: (0,1), (2,3), …,
    odd tail carried — the pairing ``VirtualComm`` reductions use, so
    folding ``moment_merge_op`` over a collective gives the same bits."""
    if not accs:
        raise ValueError("cannot merge an empty accumulator list")
    work = list(accs)
    while len(work) > 1:
        nxt = [work[i].merge(work[i + 1]) for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def moment_merge_op(a: MomentAccumulator,
                    b: MomentAccumulator) -> MomentAccumulator:
    """Binary reduce operator for collectives over moment accumulators."""
    return a.merge(b)


def _merge_packed_moments_reference(packed: list[np.ndarray],
                                    n_vars: int) -> list[MomentAccumulator]:
    """:func:`merge_packed_moments`' oracle: unpack, then tree-merge per
    variable."""
    k = MomentAccumulator.PACKED_DOUBLES
    per_var: list[list[MomentAccumulator]] = [[] for _ in range(n_vars)]
    for vec in packed:
        vec = np.asarray(vec, dtype=np.float64)
        for i in range(n_vars):
            per_var[i].append(MomentAccumulator.unpack(vec[i * k:(i + 1) * k]))
    return [merge_accumulators(accs) for accs in per_var]


@kernel("statistics.merge_packed_moments",
        reference=_merge_packed_moments_reference)
def merge_packed_moments(packed: list[np.ndarray],
                         n_vars: int) -> list[MomentAccumulator]:
    """Merge rank-major packed partial models; one result per variable.

    ``packed[r]`` holds rank r's ``n_vars`` concatenated 7-double packs.
    They are reshaped to ``(ranks, n_vars, 7)`` and the rank axis folds
    for every variable at once.
    """
    packed = list(packed)
    if not packed or n_vars == 0:
        return _merge_packed_moments_reference(packed, n_vars)
    arr = np.stack([np.asarray(v, dtype=np.float64) for v in packed])
    arr = arr.reshape(len(packed), n_vars, MomentAccumulator.PACKED_DOUBLES)
    if np.any(arr[:, :, 0] == 0):
        return _merge_packed_moments_reference(packed, n_vars)
    merged = _fold_packed(arr)
    return [MomentAccumulator.unpack(merged[i]) for i in range(n_vars)]

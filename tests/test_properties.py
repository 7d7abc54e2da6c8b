"""Cross-cutting property-based tests (hypothesis) on core invariants.

These complement the per-module suites with randomized, shrinkable checks
of the library's load-bearing contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics.moments import MomentAccumulator
from repro.analysis.topology import compute_merge_tree
from repro.io.bp import BPFile
from repro.machine.gemini import GeminiNetwork, Protocol

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.complex128]


class TestBPFormatProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(DTYPES) - 1),
                st.lists(st.integers(1, 6), min_size=1, max_size=3),
            ),
            min_size=1, max_size=5),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_dtype_and_shape(self, specs, seed):
        import tempfile
        from pathlib import Path
        tmp = Path(tempfile.mkdtemp(prefix="bp-prop-"))
        rng = np.random.default_rng(seed)
        arrays = {}
        for i, (dt_idx, shape) in enumerate(specs):
            dtype = DTYPES[dt_idx]
            raw = rng.random(tuple(shape))
            if np.issubdtype(dtype, np.complexfloating):
                arrays[f"v{i}"] = (raw + 1j * raw).astype(dtype)
            else:
                arrays[f"v{i}"] = (raw * 100).astype(dtype)
        path = tmp / "x.bp"
        with BPFile.create(path, attrs={"seed": seed}) as bp:
            for name, arr in arrays.items():
                bp.write(name, arr)
        r = BPFile.open(path)
        assert r.attrs["seed"] == seed
        for name, arr in arrays.items():
            got = r.read(name)
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, arr)


class TestNetworkProperties:
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_transfer_time_monotone_per_protocol(self, a, b):
        net = GeminiNetwork()
        lo, hi = min(a, b), max(a, b)
        for proto in (Protocol.SMSG, Protocol.BTE):
            assert net.transfer_time(lo, proto) <= net.transfer_time(hi, proto)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_adaptive_never_worse_than_double_best(self, n):
        """The size-adaptive pick is within the crossover band of optimal."""
        net = GeminiNetwork()
        best = min(net.transfer_time(n, Protocol.SMSG),
                   net.transfer_time(n, Protocol.BTE))
        assert net.transfer_time(n) <= 2.0 * best


class TestMergeTreeProperties:
    @given(st.integers(0, 10**6),
           st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 5)))
    @settings(max_examples=25, deadline=None)
    def test_leaves_are_exactly_local_maxima(self, seed, shape):
        f = np.random.default_rng(seed).random(shape)
        tree, _ = compute_merge_tree(f)
        brute = 0
        for idx in np.ndindex(f.shape):
            is_max = True
            for axis in range(3):
                for d in (-1, 1):
                    j = list(idx)
                    j[axis] += d
                    if 0 <= j[axis] < f.shape[axis] and f[tuple(j)] > f[idx]:
                        is_max = False
            brute += is_max
        assert len(tree.leaves()) == brute

    @given(st.integers(0, 10**6),
           st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_structure_invariant_under_affine_maps(self, seed, shift, scale):
        f = np.random.default_rng(seed).random((4, 4, 4))
        t1, _ = compute_merge_tree(f)
        t2, _ = compute_merge_tree(scale * f + shift)
        assert t1.arcs() == t2.arcs()
        assert t1.leaves() == t2.leaves()


class TestMomentProperties:
    @given(st.integers(0, 10**6), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_merge_associative_random_grouping(self, seed, n_chunks):
        rng = np.random.default_rng(seed)
        chunks = [rng.normal(size=rng.integers(1, 40))
                  for _ in range(n_chunks)]
        accs = [MomentAccumulator.from_data(c) for c in chunks]
        # left fold vs right fold
        left = accs[0]
        for a in accs[1:]:
            left = left.merge(a)
        right = accs[-1]
        for a in accs[-2::-1]:
            right = a.merge(right)
        assert left.n == right.n
        assert left.mean == pytest.approx(right.mean, rel=1e-10, abs=1e-12)
        assert left.M2 == pytest.approx(right.M2, rel=1e-8, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_extrema_exact_under_any_split(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=50)
        k = int(rng.integers(1, 49))
        a = MomentAccumulator.from_data(x[:k])
        b = MomentAccumulator.from_data(x[k:])
        m = a.merge(b)
        assert m.minimum == x.min() and m.maximum == x.max()

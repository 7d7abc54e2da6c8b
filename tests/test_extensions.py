"""Tests for the §VI future-work extensions, implemented:

* hybrid auto-correlative statistics,
* feature-based statistics (merge tree x moments),
* streaming in-transit processing.
"""

import numpy as np
import pytest

from repro.analysis.feature_stats import (
    derive_feature_statistics,
    feature_statistics_hybrid,
    learn_feature_partials,
    merge_feature_partials,
)
from repro.analysis.statistics.autocorrelation import (
    AutocorrelationLearner,
    LagAccumulator,
    derive_autocorrelation,
    reference_autocorrelation,
)
from repro.analysis.topology import segment_superlevel
from repro.core import HybridFramework
from repro.sim import LiftedFlameCase, StructuredGrid3D
from repro.vmpi import BlockDecomposition3D


class TestLagAccumulator:
    def test_correlation_of_identical_series_is_one(self):
        x = np.random.default_rng(0).random(100)
        acc = LagAccumulator()
        acc.accumulate(x, x)
        assert acc.correlation() == pytest.approx(1.0)

    def test_correlation_of_anticorrelated(self):
        x = np.random.default_rng(1).normal(size=1000)
        acc = LagAccumulator()
        acc.accumulate(x, -x)
        assert acc.correlation() == pytest.approx(-1.0)

    def test_correlation_matches_numpy(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=500), rng.normal(size=500)
        y = 0.6 * x + 0.8 * y
        acc = LagAccumulator()
        acc.accumulate(x, y)
        ref = np.corrcoef(x, y)[0, 1]
        assert acc.correlation() == pytest.approx(ref, rel=1e-9)

    def test_merge_matches_concatenation(self):
        rng = np.random.default_rng(3)
        xa, ya = rng.normal(size=300), rng.normal(size=300)
        xb, yb = rng.normal(size=200) + 2, rng.normal(size=200)
        a, b, whole = LagAccumulator(), LagAccumulator(), LagAccumulator()
        a.accumulate(xa, ya)
        b.accumulate(xb, yb)
        whole.accumulate(np.concatenate([xa, xb]), np.concatenate([ya, yb]))
        merged = a.merge(b)
        assert merged.correlation() == pytest.approx(whole.correlation(), rel=1e-9)

    def test_constant_series_zero(self):
        acc = LagAccumulator()
        acc.accumulate(np.ones(10), np.ones(10))
        assert acc.correlation() == 0.0

    def test_too_few_samples_raises(self):
        acc = LagAccumulator()
        acc.accumulate(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            acc.correlation()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LagAccumulator().accumulate(np.zeros(3), np.zeros(4))

    def test_pack_unpack(self):
        acc = LagAccumulator()
        acc.accumulate(np.arange(5.0), np.arange(5.0)[::-1])
        again = LagAccumulator.unpack(acc.pack())
        assert vars(again) == pytest.approx(vars(acc))
        with pytest.raises(ValueError):
            LagAccumulator.unpack(np.zeros(4))


class TestAutocorrelationLearner:
    def _series(self, n_steps=12, shape=(6, 5, 4), rho=0.8, seed=4):
        """AR(1)-in-time field series with known autocorrelation."""
        rng = np.random.default_rng(seed)
        out = [rng.normal(size=shape)]
        for _ in range(n_steps - 1):
            out.append(rho * out[-1] + np.sqrt(1 - rho**2) * rng.normal(size=shape))
        return np.stack(out)

    def test_streaming_matches_batch_reference(self):
        series = self._series()
        learner = AutocorrelationLearner(max_lag=3)
        for step in series:
            learner.observe(step)
        derived = derive_autocorrelation([learner.pack()], max_lag=3)
        ref = reference_autocorrelation(series, max_lag=3)
        for k in (1, 2, 3):
            assert derived[k] == pytest.approx(ref[k], rel=1e-9)

    def test_ar1_decay_shape(self):
        """rho(k) ~ rho^k for an AR(1) process."""
        series = self._series(n_steps=60, rho=0.8, seed=5)
        learner = AutocorrelationLearner(max_lag=3)
        for step in series:
            learner.observe(step)
        rho = derive_autocorrelation([learner.pack()], max_lag=3)
        assert rho[1] == pytest.approx(0.8, abs=0.1)
        assert rho[1] > rho[2] > rho[3] > 0

    def test_distributed_merge_matches_single_learner(self):
        """Per-rank learners over blocks == one learner over the domain."""
        series = self._series(shape=(8, 6, 4))
        decomp = BlockDecomposition3D((8, 6, 4), (2, 1, 2))
        rank_learners = [AutocorrelationLearner(2) for _ in range(decomp.n_ranks)]
        whole = AutocorrelationLearner(2)
        for step in series:
            whole.observe(step)
            for learner, b in zip(rank_learners, decomp.blocks()):
                learner.observe(step[b.slices])
        merged = derive_autocorrelation([l.pack() for l in rank_learners], 2)
        single = derive_autocorrelation([whole.pack()], 2)
        for k in (1, 2):
            assert merged[k] == pytest.approx(single[k], rel=1e-9)

    def test_ring_buffer_bounded(self):
        """In-situ scratch stays at max_lag blocks (§III memory constraint)."""
        learner = AutocorrelationLearner(max_lag=3)
        block = np.zeros((10, 10, 10))
        for _ in range(20):
            learner.observe(block)
        assert sum(b.nbytes for b in learner._history) == 3 * block.nbytes

    def test_insufficient_steps_yield_no_lags(self):
        learner = AutocorrelationLearner(max_lag=2)
        learner.observe(np.random.default_rng(1).random((3, 3, 3)))
        derived = derive_autocorrelation([learner.pack()], 2)
        assert derived == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            AutocorrelationLearner(0)
        with pytest.raises(ValueError):
            derive_autocorrelation([], 2)
        with pytest.raises(ValueError):
            derive_autocorrelation([np.zeros(5)], 2)


class TestFeatureStatistics:
    def _setup(self):
        x, y, z = np.mgrid[0:16, 0:12, 0:8].astype(float)
        f = (np.exp(-((x - 4) ** 2 + (y - 4) ** 2 + (z - 4) ** 2) / 6.0)
             + 0.9 * np.exp(-((x - 12) ** 2 + (y - 8) ** 2 + (z - 4) ** 2) / 6.0))
        other = 2.0 * f + 1.0
        seg = segment_superlevel(f, 0.3)
        return f, other, seg

    def test_per_feature_stats_match_masked_numpy(self):
        f, other, seg = self._setup()
        decomp = BlockDecomposition3D(f.shape, (2, 2, 1))
        stats = feature_statistics_hybrid(seg, {"f": f, "g": other}, decomp)
        assert set(stats) == set(seg.features)
        for fid, fs in stats.items():
            mask = seg.labels == fid
            assert fs.n_cells == int(mask.sum())
            assert fs.statistics["f"].mean == pytest.approx(f[mask].mean())
            assert fs.statistics["f"].maximum == pytest.approx(f[mask].max())
            assert fs.statistics["g"].mean == pytest.approx(other[mask].mean())

    def test_feature_spanning_blocks_reassembles(self):
        """A feature cut by the decomposition yields partials on several
        ranks that merge to the exact global statistics."""
        f, other, seg = self._setup()
        # cut right through the first blob
        decomp = BlockDecomposition3D(f.shape, (4, 1, 1))
        partials = []
        spanning = 0
        for b in decomp.blocks():
            p = learn_feature_partials(seg.labels[b.slices], {"f": f[b.slices]})
            partials.append(p)
        counts = {}
        for p in partials:
            for fid in p:
                counts[fid] = counts.get(fid, 0) + 1
        assert max(counts.values()) >= 2, "expected a block-spanning feature"
        merged = merge_feature_partials(partials)
        derived = derive_feature_statistics(merged)
        for fid in seg.features:
            mask = seg.labels == fid
            assert derived[fid].statistics["f"].variance == pytest.approx(
                f[mask].var(ddof=1) if mask.sum() > 1 else 0.0, rel=1e-9)

    def test_background_excluded(self):
        f, _other, seg = self._setup()
        p = learn_feature_partials(seg.labels, {"f": f})
        total = sum(acc["f"].n for acc in p.values())
        assert total == int((seg.labels >= 0).sum())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            learn_feature_partials(np.zeros((2, 2, 2), dtype=int),
                                   {"f": np.zeros((3, 3, 3))})

    def test_empty_labels_give_empty_partials(self):
        p = learn_feature_partials(np.full((2, 2, 2), -1),
                                   {"f": np.zeros((2, 2, 2))})
        assert p == {}


class TestStreamingInTransit:
    def _framework(self, streaming):
        grid = StructuredGrid3D((10, 8, 6))
        case = LiftedFlameCase(grid, seed=33, kernel_rate=1.0)
        decomp = BlockDecomposition3D((10, 8, 6), (2, 2, 1))
        return HybridFramework(case, decomp, analyses=("topology",),
                               n_buckets=2, streaming_topology=streaming)

    def test_streaming_tree_equals_buffered_tree(self):
        """§VI streaming glue produces the identical global merge tree."""
        buffered = self._framework(False).run(3)
        streaming = self._framework(True).run(3)
        for step in (0, 1, 2):
            assert streaming.merge_trees[step].reduced().signature() == \
                buffered.merge_trees[step].reduced().signature()

    def test_stream_and_compute_mutually_exclusive(self):
        from repro.staging.descriptors import TaskDescriptor
        with pytest.raises(ValueError):
            TaskDescriptor(task_id="t", analysis="a", timestep=0, data=[],
                           compute=lambda p: p,
                           stream_compute=lambda s, p: p)

    @pytest.mark.parametrize("streaming", [
        {"stream_finalize": lambda state: state},
        {"stream_cost_per_payload": 5.0},
    ], ids=["stream_finalize", "stream_cost_per_payload"])
    def test_streaming_fields_need_stream_compute(self, streaming):
        """Without ``stream_compute`` the task runs buffered: a finalizer
        would never run and a per-payload charge never be paid."""
        from repro.staging.descriptors import TaskDescriptor
        with pytest.raises(ValueError, match="need stream_compute"):
            TaskDescriptor(task_id="t", analysis="a", timestep=0, data=[],
                           compute=lambda p: p, **streaming)

    def test_streaming_overlaps_compute_with_pulls(self):
        """On the DES, a streaming task with per-payload compute finishes
        earlier than the equivalent buffered task because compute overlaps
        the remaining transfers."""
        import numpy as np
        from repro.costmodel import CostModel
        from repro.des import Engine
        from repro.staging import DataSpaces
        from repro.transport import DartTransport

        def run(mode):
            eng = Engine()
            tr = DartTransport(eng)
            # compute charged per payload: 10 ms; pulls: ~10.7 ms each
            # (64 MB at 6 GB/s) — comparable, so overlap nearly halves
            # the task time
            model = CostModel("m", {"buffered.op": 0.010})
            ds = DataSpaces(eng, tr, cost_model=model)
            ds.spawn_buckets(["b0"])
            descs = [tr.register(f"sim-{i}", None, nbytes=64 * 2**20)
                     for i in range(10)]
            if mode == "stream":
                ds.submit_grouped_result(
                    "x", 0, descs,
                    stream_compute=lambda s, p: s,
                    stream_cost_per_payload=0.010)
            else:
                ds.submit_grouped_result("x", 0, descs,
                                         cost_op="buffered.op",
                                         cost_elements=10)
            ds.shutdown_buckets()
            eng.run()
            return ds.all_results()[0].finish_time

        # the streaming variant prefetches the next pull while computing,
        # finishing in ~max(total pull, total compute) instead of the sum
        t_stream = run("stream")
        t_buffered = run("buffered")
        assert t_stream < t_buffered * 0.75

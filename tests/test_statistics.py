"""Tests for the parallel statistics analysis (moments, stages, engine)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics import (
    MomentAccumulator,
    StatisticsEngine,
    assess,
    derive,
    learn,
    merge_accumulators,
    test_mean_zscore as mean_zscore_test,
)
from repro.vmpi import VirtualComm

finite_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2,
    max_size=200).map(lambda xs: np.array(xs))


def _reference_stats(x: np.ndarray) -> dict:
    n = x.size
    mean = x.mean()
    d = x - mean
    m2 = (d ** 2).mean()
    return {
        "mean": mean,
        "variance": (d ** 2).sum() / (n - 1),
        "skewness": (d ** 3).mean() / m2 ** 1.5 if m2 > 0 else 0.0,
        "kurtosis": (d ** 4).mean() / m2 ** 2 - 3.0 if m2 > 0 else 0.0,
    }


class TestMomentAccumulator:
    def test_from_data_matches_numpy(self):
        x = np.random.default_rng(0).normal(3.0, 2.0, size=1000)
        acc = MomentAccumulator.from_data(x)
        assert acc.n == 1000
        assert acc.mean == pytest.approx(x.mean())
        assert acc.minimum == x.min() and acc.maximum == x.max()
        assert acc.M2 == pytest.approx(((x - x.mean()) ** 2).sum(), rel=1e-10)

    def test_empty_chunk(self):
        acc = MomentAccumulator.from_data(np.array([]))
        assert acc.n == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MomentAccumulator.from_data(np.array([1.0, np.nan]))

    def test_merge_matches_concatenation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 300)
        b = rng.normal(5, 3, 500)  # very different distribution
        merged = MomentAccumulator.from_data(a).merge(MomentAccumulator.from_data(b))
        direct = MomentAccumulator.from_data(np.concatenate([a, b]))
        assert merged.n == direct.n
        assert merged.mean == pytest.approx(direct.mean, rel=1e-12)
        assert merged.M2 == pytest.approx(direct.M2, rel=1e-10)
        assert merged.M3 == pytest.approx(direct.M3, rel=1e-8, abs=1e-6)
        assert merged.M4 == pytest.approx(direct.M4, rel=1e-10)
        assert merged.minimum == direct.minimum
        assert merged.maximum == direct.maximum

    def test_merge_with_empty_is_identity(self):
        a = MomentAccumulator.from_data(np.arange(10.0))
        empty = MomentAccumulator()
        for merged in (a.merge(empty), empty.merge(a)):
            assert merged.n == a.n
            assert merged.mean == a.mean
            assert merged.M4 == a.M4

    @given(finite_arrays, finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_property_merge_commutes(self, xs, ys):
        a = MomentAccumulator.from_data(xs)
        b = MomentAccumulator.from_data(ys)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.n == ba.n
        assert ab.mean == pytest.approx(ba.mean, rel=1e-9, abs=1e-9)
        assert ab.M2 == pytest.approx(ba.M2, rel=1e-7, abs=1e-6)

    @given(st.lists(finite_arrays, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_property_tree_merge_matches_concat(self, chunks):
        accs = [MomentAccumulator.from_data(c) for c in chunks]
        merged = merge_accumulators(accs)
        direct = MomentAccumulator.from_data(np.concatenate(chunks))
        assert merged.n == direct.n
        assert merged.mean == pytest.approx(direct.mean, rel=1e-9, abs=1e-9)
        scale = max(abs(direct.M2), 1.0)
        assert abs(merged.M2 - direct.M2) / scale < 1e-6

    def test_numerical_stability_large_offset(self):
        """The stable formulas survive data with a huge common offset."""
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 10000) + 1e9
        halves = np.split(x, 2)
        merged = merge_accumulators([MomentAccumulator.from_data(h) for h in halves])
        stats = derive(merged)
        assert stats.variance == pytest.approx(1.0, rel=0.05)

    def test_pack_unpack_roundtrip(self):
        acc = MomentAccumulator.from_data(np.random.default_rng(4).random(50))
        again = MomentAccumulator.unpack(acc.pack())
        assert vars(again) == pytest.approx(vars(acc))

    def test_unpack_bad_shape(self):
        with pytest.raises(ValueError):
            MomentAccumulator.unpack(np.zeros(5))

    def test_wire_size_is_seven_doubles(self):
        """The hybrid deployment ships 56 bytes per (rank, variable)."""
        acc = MomentAccumulator.from_data(np.arange(4.0))
        assert acc.pack().nbytes == 56

    def test_merge_empty_list_raises(self):
        with pytest.raises(ValueError):
            merge_accumulators([])


class TestStages:
    def test_derive_matches_reference(self):
        x = np.random.default_rng(5).gamma(2.0, 3.0, 5000)
        stats = derive(learn(x))
        ref = _reference_stats(x)
        assert stats.mean == pytest.approx(ref["mean"])
        assert stats.variance == pytest.approx(ref["variance"], rel=1e-9)
        assert stats.skewness == pytest.approx(ref["skewness"], rel=1e-9)
        assert stats.kurtosis == pytest.approx(ref["kurtosis"], rel=1e-9)
        assert stats.std == pytest.approx(math.sqrt(ref["variance"]))

    def test_derive_constant_data(self):
        stats = derive(learn(np.full(100, 7.0)))
        assert stats.variance == pytest.approx(0.0, abs=1e-20)
        assert stats.skewness == 0.0 and stats.kurtosis == 0.0

    def test_derive_empty_raises(self):
        with pytest.raises(ValueError):
            derive(MomentAccumulator())

    def test_derive_single_observation(self):
        stats = derive(learn(np.array([2.5])))
        assert stats.n == 1 and stats.variance == 0.0

    def test_gaussian_shape_parameters(self):
        x = np.random.default_rng(6).normal(size=200_000)
        stats = derive(learn(x))
        assert stats.skewness == pytest.approx(0.0, abs=0.05)
        assert stats.kurtosis == pytest.approx(0.0, abs=0.1)

    def test_assess_zscores(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        stats = derive(learn(x))
        z = assess(x, stats)
        assert z[2] == pytest.approx(0.0)  # the mean scores zero
        assert z[-1] > 0 and z[0] < 0
        np.testing.assert_allclose(z * stats.std + stats.mean, x)

    def test_assess_constant_model(self):
        stats = derive(learn(np.full(10, 3.0)))
        z = assess(np.array([1.0, 5.0]), stats)
        np.testing.assert_array_equal(z, 0.0)

    def test_test_statistic_detects_shift(self):
        x = np.random.default_rng(7).normal(1.0, 1.0, 10000)
        stats = derive(learn(x))
        z_true = mean_zscore_test(stats, 1.0)
        z_wrong = mean_zscore_test(stats, 0.0)
        assert abs(z_true) < 4.0
        assert abs(z_wrong) > 50.0

    def test_test_requires_variance(self):
        with pytest.raises(ValueError):
            mean_zscore_test(derive(learn(np.full(10, 1.0))), 0.0)


class TestStatisticsEngine:
    def _blocks(self, n_ranks=8, n=500, seed=8):
        rng = np.random.default_rng(seed)
        return [{"T": rng.normal(2.0, 0.7, n), "H2": rng.random(n)}
                for _ in range(n_ranks)]

    def test_insitu_and_hybrid_agree(self):
        """The paper's two deployments must produce the same statistics."""
        blocks = self._blocks()
        engine = StatisticsEngine(VirtualComm(8))
        insitu = engine.run_insitu(blocks)
        hybrid = engine.run_hybrid(blocks)
        for var in ("T", "H2"):
            a, b = insitu.statistics[var], hybrid.statistics[var]
            assert a.n == b.n
            assert a.mean == pytest.approx(b.mean, rel=1e-12)
            assert a.variance == pytest.approx(b.variance, rel=1e-10)
            assert a.skewness == pytest.approx(b.skewness, rel=1e-8)
            assert a.kurtosis == pytest.approx(b.kurtosis, rel=1e-8)

    def test_both_match_serial_reference(self):
        blocks = self._blocks(n_ranks=4)
        engine = StatisticsEngine(VirtualComm(4))
        hybrid = engine.run_hybrid(blocks)
        all_t = np.concatenate([b["T"] for b in blocks])
        ref = _reference_stats(all_t)
        assert hybrid.statistics["T"].mean == pytest.approx(ref["mean"])
        assert hybrid.statistics["T"].variance == pytest.approx(ref["variance"], rel=1e-9)

    def test_insitu_model_consistent_across_ranks(self):
        """The all-to-all guarantees every rank holds the same model."""
        engine = StatisticsEngine(VirtualComm(6))
        result = engine.run_insitu(self._blocks(n_ranks=6))
        base = result.per_rank_models[0]["T"]
        for rank_model in result.per_rank_models[1:]:
            assert rank_model["T"].mean == base.mean
            assert rank_model["T"].variance == base.variance

    def test_insitu_uses_collective_communication(self):
        comm = VirtualComm(4)
        engine = StatisticsEngine(comm)
        engine.run_insitu(self._blocks(n_ranks=4))
        assert comm.tracker.count("allreduce") == 2  # one per variable
        assert engine.run_insitu(self._blocks(n_ranks=4)).comm_time > 0

    def test_hybrid_wire_size(self):
        """Hybrid moves 56 B x n_vars per rank — orders of magnitude less
        than the raw blocks (Table II's 13.3 MB vs 98.5 GB at scale)."""
        blocks = self._blocks(n_ranks=8, n=10_000)
        engine = StatisticsEngine(VirtualComm(8))
        hybrid = engine.run_hybrid(blocks)
        raw = sum(b["T"].nbytes + b["H2"].nbytes for b in blocks)
        assert hybrid.partials_nbytes == 8 * 2 * 56
        assert hybrid.partials_nbytes < raw / 100
        assert hybrid.n_partials == 8

    def test_wrong_rank_count_raises(self):
        engine = StatisticsEngine(VirtualComm(4))
        with pytest.raises(ValueError):
            engine.run_hybrid(self._blocks(n_ranks=3))

    def test_intransit_derive_validates_packet(self):
        engine = StatisticsEngine(VirtualComm(2))
        with pytest.raises(ValueError):
            engine.intransit_derive([np.zeros(3)], ["T"])

    def test_learn_only_stage_communicates(self):
        """Fig. 4's claim: learn (merge) is the only communicating stage.
        The hybrid path performs no collective at all — partials move
        point-to-point through staging."""
        comm = VirtualComm(4)
        engine = StatisticsEngine(comm)
        engine.run_hybrid(self._blocks(n_ranks=4))
        assert comm.tracker.records == []

"""Tests for repro.obs.perf: run store, regression gate, dashboard, CLI."""

import json
import math

import pytest

from repro.cli import main
from repro.core import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.obs.perf import (
    DEFAULT_POLICIES,
    Baseline,
    MetricPolicy,
    RegressionReport,
    RunRecord,
    RunStore,
    collect_run_record,
    compare_record,
    machine_fingerprint,
)
from repro.obs.report import render_dashboard, write_dashboard


def _record(metrics, source="test", **kwargs):
    return RunRecord.new(source=source, metrics=metrics, **kwargs)


class TestRunStore:
    def test_append_and_roundtrip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        rec = _record({"a.time_s": 1.5, "count.items": 3.0},
                      meta={"note": "x"})
        store.append(rec)
        (got,) = store.records()
        assert got.run_id == rec.run_id
        assert got.metrics == {"a.time_s": 1.5, "count.items": 3.0}
        assert got.meta == {"note": "x"}
        assert got.source == "test"

    def test_appends_accumulate_in_order(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for i in range(4):
            store.append(_record({"v": float(i)}))
        assert [r.metrics["v"] for r in store.records()] == [0, 1, 2, 3]
        assert len(store) == 4

    def test_torn_lines_are_skipped(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(_record({"v": 1.0}))
        with open(store.path, "a") as fh:
            fh.write("{not json\n\n[1, 2]\n")
        store.append(_record({"v": 2.0}))
        assert [r.metrics["v"] for r in store.records()] == [1.0, 2.0]
        assert store.skipped == 2

    def test_empty_store(self, tmp_path):
        store = RunStore(tmp_path / "nothing")
        assert store.records() == []
        assert len(store) == 0


class TestBaseline:
    def test_median_and_mad(self, tmp_path):
        records = [_record({"m": v}) for v in (10.0, 12.0, 11.0)]
        base = Baseline.from_records(records)
        med, mad, n = base.stats["m"]
        assert med == 11.0
        assert mad == 1.0  # |10-11|, |12-11|, |11-11| -> median 1
        assert n == 3

    def test_window_keeps_last_n(self):
        records = [_record({"m": float(v)}) for v in range(10)]
        base = Baseline.from_records(records, window=3)
        med, _mad, n = base.stats["m"]
        assert med == 8.0 and n == 3
        assert base.n_records == 3

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Baseline.from_records([], window=0)


class TestCompareRecord:
    def _base(self, value=100.0, spread=0.0, n=5):
        vals = [value + spread * (i - n // 2) for i in range(n)]
        return Baseline.from_records([_record({"m": v}) for v in vals])

    def test_identical_value_is_ok(self):
        report = compare_record(_record({"m": 100.0}), self._base())
        (v,) = [v for v in report.verdicts if v.status == "ok"]
        assert v.metric == "m" and report.ok

    def test_regression_beyond_tolerance_fails(self):
        report = compare_record(_record({"m": 103.0}), self._base())
        (v,) = [v for v in report.verdicts if v.status == "regressed"]
        assert v.metric == "m"
        assert not report.ok
        assert v.failed

    def test_improvement_is_not_a_failure(self):
        report = compare_record(_record({"m": 90.0}), self._base())
        (v,) = [v for v in report.verdicts if v.status == "improved"]
        assert v.metric == "m" and report.ok

    def test_mad_band_absorbs_baseline_noise(self):
        # spread=4 -> MAD 4; band = 3 * 1.4826 * 4 ≈ 17.8 > 2% tolerance
        noisy = self._base(spread=4.0)
        report = compare_record(_record({"m": 110.0}), noisy)
        (v,) = [v for v in report.verdicts if v.status == "ok"]
        assert v.metric == "m"

    def test_tolerance_override_first_match_wins(self):
        policies = (MetricPolicy("m", tolerance=0.10),) + DEFAULT_POLICIES
        report = compare_record(_record({"m": 108.0}), self._base(),
                                policies)
        assert report.ok
        report = compare_record(_record({"m": 112.0}), self._base(),
                                policies)
        assert not report.ok

    def test_direction_higher_flags_drops(self):
        policies = (MetricPolicy("m", direction="higher"),
                    ) + DEFAULT_POLICIES
        report = compare_record(_record({"m": 80.0}), self._base(),
                                policies)
        (v,) = [v for v in report.verdicts if v.status == "regressed"]
        assert v.metric == "m"
        report = compare_record(_record({"m": 120.0}), self._base(),
                                policies)
        (v,) = [v for v in report.verdicts if v.status == "improved"]
        assert v.metric == "m"

    def test_direction_both_flags_any_drift(self):
        policies = (MetricPolicy("m", tolerance=0.0, direction="both"),
                    ) + DEFAULT_POLICIES
        for value in (99.0, 101.0):
            report = compare_record(_record({"m": value}), self._base(),
                                    policies)
            assert not report.ok

    def test_new_metric_is_informational(self):
        report = compare_record(_record({"m": 100.0, "fresh": 1.0}),
                                self._base())
        (v,) = [v for v in report.verdicts if v.status == "new"]
        assert v.metric == "fresh" and not v.failed and report.ok

    def test_missing_gated_metric_fails(self):
        base = Baseline.from_records(
            [_record({"m": 100.0, "gone.s": 5.0})])
        report = compare_record(_record({"m": 100.0}), base)
        (v,) = [v for v in report.verdicts if v.status == "missing"]
        assert v.metric == "gone.s" and not report.ok

    def test_wall_metrics_never_gate(self):
        base = Baseline.from_records([_record({"wall.t": 1.0})])
        report = compare_record(_record({"wall.t": 50.0}), base)
        (v,) = [v for v in report.verdicts if v.status == "info"]
        assert v.metric == "wall.t" and report.ok

    def test_report_table_renders(self):
        report = compare_record(_record({"m": 103.0}), self._base())
        text = report.table()
        assert "REGRESSED" in text and "m" in text

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            MetricPolicy("m", direction="sideways")
        with pytest.raises(ValueError):
            MetricPolicy("m", tolerance=-0.1)


_SMALL = ReplayPlan(n_steps=4, n_buckets=4)


class TestCollectRunRecord:
    def test_deterministic_gated_metrics(self):
        a = collect_run_record(_SMALL)
        b = collect_run_record(_SMALL)
        gated = {k: v for k, v in a.metrics.items()
                 if not k.startswith("wall.")}
        assert gated == {k: v for k, v in b.metrics.items()
                        if not k.startswith("wall.")}
        assert a.metrics["probe.samples"] > 0
        assert a.meta["stage_breakdown"]
        assert a.machine == machine_fingerprint(
            ScaledExperiment(ExperimentConfig.paper_4896()).machine)

    def test_perturbation_trips_the_gate(self):
        base = Baseline.from_records(
            [collect_run_record(_SMALL)])
        slowed = collect_run_record(_SMALL, perturb={"topo.subtree": 1.5})
        report = compare_record(slowed, base)
        assert not report.ok
        regressed = {v.metric for v in report.verdicts
                     if v.status == "regressed"}
        assert "trace.insitu_s" in regressed

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_a_perturbation_must_be_a_finite_positive_factor(self, factor):
        with pytest.raises(ValueError, match="'topo.subtree' must be a "
                                             "finite number > 0"):
            collect_run_record(_SMALL, perturb={"topo.subtree": factor})


class TestDashboard:
    def _records(self, n=3):
        return [_record({"a.time_s": 10.0 + i, "faults.mttr_s": 0.005,
                         "wall.x": 0.1},
                        meta={"stage_breakdown":
                              {"simulation": {"in-situ": 1.0,
                                              "data movement": 0.0,
                                              "in-transit": 0.0}},
                              "slo_rules": [{"name": "r1",
                                             "description": "demo"}],
                              "alerts": [],
                              "probe_series":
                              {"q": [[0.0, 1.0], [1.0, 2.0]]}})
                for i in range(n)]

    def test_contains_required_panels(self):
        html = render_dashboard(self._records())
        assert html.count("class=\"spark\"") >= 3
        assert "stage breakdown" in html
        assert "SLO rules" in html
        assert "faults.mttr_s" in html
        assert "prefers-color-scheme: dark" in html
        assert "<details>" in html
        assert "http" not in html.split("</style>")[1]  # self-contained

    def test_gate_panel_when_report_given(self):
        records = self._records()
        base = Baseline.from_records(records[:-1])
        report = compare_record(records[-1], base)
        html = render_dashboard(records, report)
        assert "Regression gate" in html and "PASS" in html

    def test_empty_store_renders_hint(self):
        html = render_dashboard([])
        assert "perf record" in html

    def test_write_dashboard_creates_parents(self, tmp_path):
        out = write_dashboard(tmp_path / "deep" / "dash.html",
                              self._records())
        assert out.exists() and out.read_text().startswith("<!DOCTYPE")

    def test_escapes_hostile_names(self):
        rec = _record({"<script>alert(1)</script>": 1.0})
        html = render_dashboard([rec])
        assert "<script>alert" not in html


class TestPerfCli:
    def test_record_compare_report_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--store", store, "--baseline", store,
                "--out-dir", str(tmp_path / "out"),
                "--steps", "4", "--buckets", "4"]
        assert main(["perf", "record", *args]) == 0
        assert main(["perf", "record", *args]) == 0
        assert main(["perf", "compare", *args]) == 0
        assert main(["perf", "report", *args]) == 0
        capsys.readouterr()
        dash = tmp_path / "out" / "perf_dashboard.html"
        assert dash.exists()
        assert "Regression gate" in dash.read_text()

    def test_compare_perturbed_exits_nonzero(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--store", store, "--baseline", store,
                "--steps", "4", "--buckets", "4"]
        assert main(["perf", "record", *args]) == 0
        code = main(["perf", "compare", *args,
                     "--perturb", "topo.subtree=1.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_compare_tolerance_override_absorbs(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--store", store, "--baseline", store,
                "--steps", "4", "--buckets", "4"]
        assert main(["perf", "record", *args]) == 0
        code = main(["perf", "compare", *args,
                     "--perturb", "topo.subtree=1.5",
                     "--tolerance", "*=0.60",
                     "--tolerance", "count.*=0.60",
                     "--tolerance", "probe.samples=0.60",
                     "--tolerance", "slo.alerts=0.60"])
        assert code == 0
        capsys.readouterr()

    def test_compare_without_baseline_is_an_error(self, tmp_path, capsys):
        code = main(["perf", "compare",
                     "--baseline", str(tmp_path / "missing"),
                     "--steps", "4", "--buckets", "4"])
        assert code == 2
        assert "no baseline records" in capsys.readouterr().out

    def test_bad_kv_arguments_exit_with_message(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["perf", "record", "--store", str(tmp_path),
                  "--perturb", "nonsense"])
        with pytest.raises(SystemExit):
            main(["perf", "record", "--store", str(tmp_path),
                  "--tolerance", "m=abc"])

    def test_report_falls_back_to_baseline_store(self, tmp_path, capsys):
        base = str(tmp_path / "base")
        assert main(["perf", "record", "--store", base,
                     "--baseline", base, "--steps", "4",
                     "--buckets", "4"]) == 0
        assert main(["perf", "report", "--baseline", base,
                     "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "perf_dashboard.html").exists()


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def records(self):
        records = RunStore("benchmarks/results/baseline").records()
        assert records, "committed baseline store is missing"
        return records

    @pytest.fixture(scope="class")
    def fresh(self):
        return collect_run_record()

    def test_repo_baseline_gates_clean(self, records, fresh):
        """The committed baseline must accept an unchanged tree: every
        deterministic metric of a fresh record matches it exactly."""
        report = compare_record(fresh, Baseline.from_records(records))
        assert report.ok, report.table()
        assert fresh.metrics["slo.alerts"] == 1.0

    def test_dashboard_marks_the_insitu_share_breach(self, records, fresh):
        """The committed records name an alert's objective ``rule`` and
        a fresh one ``objective``: the panel marks the breach from both
        (reading only one of the two keys shows every rule as held)."""
        for last in (records[-1], fresh):
            html = render_dashboard([last])
            assert "✕ insitu-share</strong> — breached" in html
            assert "✓ queue-backlog" in html

    def test_baseline_records_are_schema_1(self):
        with open(RunStore("benchmarks/results/baseline").path) as fh:
            for line in fh:
                assert json.loads(line)["schema"] == 1


def test_regression_report_counts_and_ok():
    verdicts = compare_record(
        _record({"m": 100.0}),
        Baseline.from_records([_record({"m": 100.0})])).verdicts
    report = RegressionReport(verdicts=verdicts, n_baseline_records=1)
    assert report.ok and report.counts() == {"ok": 1}

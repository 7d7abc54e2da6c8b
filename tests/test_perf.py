"""Tests for repro.obs.perf: run store, regression gate, dashboard, CLI."""

import json
import math

import pytest

from repro.cli import main
from repro.core import ExperimentConfig, ReplayPlan, ScaledExperiment
from repro.obs.perf import (
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


class TestCompareRecord:
    """Each metric against one baseline record, under the first matching
    rule of ``DEFAULT_POLICIES``; ``m`` falls to the catch-all rule
    (lower is better, 2 % band)."""

    def _base(self, value=100.0, metric="m"):
        return _record({metric: value})

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

    def test_tolerance_override_first_match_wins(self):
        # ``count.*`` (exact) precedes the catch-all 2 % rule.
        base = _record({"count.tasks_done": 100.0, "m": 100.0})
        report = compare_record(
            _record({"count.tasks_done": 101.0, "m": 101.0}), base)
        assert {v.metric: v.status for v in report.verdicts} == {
            "count.tasks_done": "regressed", "m": "ok"}

    def test_direction_higher_flags_drops(self):
        base = self._base(metric="controller.speedup")
        report = compare_record(_record({"controller.speedup": 80.0}), base)
        (v,) = [v for v in report.verdicts if v.status == "regressed"]
        assert v.metric == "controller.speedup"
        report = compare_record(_record({"controller.speedup": 120.0}),
                                base)
        (v,) = [v for v in report.verdicts if v.status == "improved"]
        assert v.metric == "controller.speedup"

    def test_direction_both_flags_any_drift(self):
        base = self._base(metric="count.tasks_done")
        for value in (99.0, 101.0):
            report = compare_record(_record({"count.tasks_done": value}),
                                    base)
            assert not report.ok

    def test_non_finite_gated_value_regresses(self):
        for value, base in ((math.nan, 100.0), (100.0, math.nan),
                            (math.inf, 100.0), (-math.inf, 100.0)):
            report = compare_record(_record({"m": value}),
                                    self._base(base))
            assert [v.status for v in report.verdicts] == ["regressed"]
            assert not report.ok

    def test_new_metric_is_informational(self):
        report = compare_record(_record({"m": 100.0, "fresh": 1.0}),
                                self._base())
        (v,) = [v for v in report.verdicts if v.status == "new"]
        assert v.metric == "fresh" and not v.failed and report.ok

    def test_missing_gated_metric_fails(self):
        base = _record({"m": 100.0, "gone.s": 5.0})
        report = compare_record(_record({"m": 100.0}), base)
        (v,) = [v for v in report.verdicts if v.status == "missing"]
        assert v.metric == "gone.s" and not report.ok

    def test_wall_metrics_never_gate(self):
        base = _record({"wall.t": 1.0})
        report = compare_record(_record({"wall.t": 50.0}), base)
        (v,) = [v for v in report.verdicts if v.status == "info"]
        assert v.metric == "wall.t" and report.ok

    def test_report_table_renders(self):
        base = self._base()
        report = compare_record(_record({"m": 103.0}), base)
        text = report.table()
        assert "REGRESSED" in text and "m" in text
        assert f"baseline run {base.run_id}" in text


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
        base = collect_run_record(_SMALL)
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
        base = _record(records[-1].metrics)
        report = compare_record(records[-1], base)
        html = render_dashboard(records, report)
        assert "Regression gate" in html and "PASS" in html
        assert f"baseline run {base.run_id}" in html

    def test_empty_store_renders_hint(self):
        html = render_dashboard([])
        assert "perf record" in html

    def test_write_dashboard_creates_parents(self, tmp_path):
        out = write_dashboard(tmp_path / "deep" / "dash.html",
                              self._records())
        assert out.exists() and out.read_text().startswith("<!DOCTYPE")

    def test_non_finite_metrics_render(self):
        rec = _record({"sched.makespan_s": math.nan, "cp.wait_s": math.inf})
        html = render_dashboard([rec], compare_record(rec, _record(
            {"sched.makespan_s": 1.0, "cp.wait_s": 1.0})))
        assert "FAIL" in html and ">nan<" in html and ">inf<" in html

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
                  "--perturb", "m=abc"])

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
        """The committed baseline's newest record must accept an
        unchanged tree: every gated metric of a fresh record lies within
        its band."""
        report = compare_record(fresh, records[-1])
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
    verdicts = compare_record(_record({"m": 100.0}),
                              _record({"m": 100.0})).verdicts
    report = RegressionReport(verdicts=verdicts, baseline_id="base")
    assert report.ok and report.counts() == {"ok": 1}


class TestGateBaselineRule:
    """``perf compare`` judges a fresh record against the newest record
    of the baseline store, and a non-finite gated figure never passes."""

    #: A baseline re-recorded by appending: the newest record is the
    #: reference even while older ones are the majority.
    _RERECORDED = [{"count.tasks_done": 10.0}, {"count.tasks_done": 10.0},
                   {"count.tasks_done": 12.0}]

    @staticmethod
    def _compare(tmp_path, monkeypatch, capsys, baseline, fresh):
        store = RunStore(tmp_path / "base")
        for metrics in baseline:
            store.append(_record(metrics))
        monkeypatch.setattr("repro.obs.perf.collect_run_record",
                            lambda *args, **kwargs: _record(fresh))
        code = main(["perf", "compare", "--baseline", str(store.root),
                     "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        cells = ([c for c in line.split() if c != "|"]
                 for line in out.splitlines())
        return code, {row[0]: row for row in cells if row and row[0] in fresh}

    def test_a_record_matching_the_newest_passes(self, tmp_path,
                                                 monkeypatch, capsys):
        code, rows = self._compare(
            tmp_path, monkeypatch, capsys,
            self._RERECORDED,
            {"count.tasks_done": 12.0})
        assert code == 0
        assert rows["count.tasks_done"][-1] == "ok"

    def test_a_record_matching_the_older_is_judged_against_the_newest(
            self, tmp_path, monkeypatch, capsys):
        code, rows = self._compare(
            tmp_path, monkeypatch, capsys,
            self._RERECORDED,
            {"count.tasks_done": 10.0})
        assert code == 1
        metric, baseline, value, *_rest, verdict = rows["count.tasks_done"]
        assert (baseline, value, verdict) == ("12", "10", "REGRESSED")

    def test_a_nan_fresh_value_regresses(self, tmp_path, monkeypatch,
                                         capsys):
        code, rows = self._compare(
            tmp_path, monkeypatch, capsys,
            [{"sched.makespan_s": 100.0}], {"sched.makespan_s": math.nan})
        assert code == 1
        assert rows["sched.makespan_s"][-1] == "REGRESSED"

    def test_a_nan_baseline_value_regresses(self, tmp_path, monkeypatch,
                                            capsys):
        # ``json.dumps`` writes the NaN and ``json.loads`` reads it back.
        code, rows = self._compare(
            tmp_path, monkeypatch, capsys,
            [{"sched.makespan_s": math.nan}], {"sched.makespan_s": 100.0})
        assert code == 1
        assert rows["sched.makespan_s"][-1] == "REGRESSED"

    def test_a_non_finite_ungated_value_stays_info(self, tmp_path,
                                                   monkeypatch, capsys):
        code, rows = self._compare(
            tmp_path, monkeypatch, capsys,
            [{"wall.record_s": 1.0}], {"wall.record_s": math.inf})
        assert code == 0
        assert rows["wall.record_s"][-1] == "info"

"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import CHECKS, build_parser, main


def _without_wall(path):
    """A trace or blame artifact with its host wall-clock fields blanked
    (they differ between any two runs)."""
    return re.sub(r'"wall_[a-z_]+": [-0-9.e+]+', '"wall": 0',
                  path.read_text())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.steps == 5
        assert args.grid == [24, 16, 12]
        assert not args.streaming


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "16.85" in out
        assert "hybrid in-situ/in-transit topology" in out

    def test_simulate_small(self, capsys):
        rc = main(["simulate", "--steps", "2", "--grid", "10", "8", "6",
                   "--ranks", "2", "1", "1", "--buckets", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean T" in out
        assert "intermediate data moved" in out
        assert "tasks:" not in out

    def test_simulate_reports_failed_tasks(self, capsys, monkeypatch):
        """An in-transit render that refuses its input fails each step's
        task terminally; the run still prints its table and says so."""
        import repro.core.framework as framework

        def refuse(*_args):
            raise ValueError("block 0 holds nan: a render needs finite values")

        monkeypatch.setattr(framework, "render_intransit", refuse)
        rc = main(["simulate", "--steps", "2", "--grid", "10", "8", "6",
                   "--ranks", "2", "1", "1", "--buckets", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean T" in out
        assert ("tasks: 2 in-transit task(s) failed terminally and left "
                "no result") in out

    def test_simulate_streaming_mode(self, capsys):
        rc = main(["simulate", "--steps", "2", "--grid", "10", "8", "6",
                   "--ranks", "2", "1", "1", "--streaming"])
        assert rc == 0

    def test_track(self, capsys):
        rc = main(["track", "--steps", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lifetime" in out

    def test_render(self, tmp_path, capsys):
        prefix = str(tmp_path / "frame")
        rc = main(["render", "--steps", "2", "--size", "16",
                   "--prefix", prefix])
        assert rc == 0
        assert (tmp_path / "frame_insitu.ppm").exists()
        assert (tmp_path / "frame_hybrid.ppm").exists()
        assert "RMSE" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        """`tables` closes with the delivery trade-off table, after
        Tables I and II."""
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "post @400" in out and "hybrid @1" in out
        assert out.index("Table I") < out.index("Table II") \
            < out.index("post @400")

    def test_schedule_healthy(self, capsys):
        rc = main(["replay", "--steps", "4", "--buckets", "8",
                   "--analyses", "TOPO_HYBRID"])
        assert rc == 0
        assert "keeps pace" in capsys.readouterr().out

    def test_control_gate_passes_and_writes_artifact(self, tmp_path,
                                                     capsys):
        import json
        rc = main(["check", "control", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "speedup" in out
        assert "decision log" in out
        assert out.rstrip().endswith("check control: PASS")
        artifact = json.loads(
            (tmp_path / "repro_control.json").read_text())
        assert artifact["improved"] is True
        assert artifact["decisions"]
        assert artifact["adaptive_makespan_s"] <= artifact["static_makespan_s"]

    def test_control_parser_defaults(self):
        """`check` takes no scenario flags: the control check replays
        CONTROL_PLAN, and no names means every check."""
        from repro.control import CONTROL_PLAN

        assert CONTROL_PLAN.n_steps == 12
        assert CONTROL_PLAN.crash_times == (30.0, 55.0)
        assert build_parser().parse_args(["check"]).names == []

    def test_schedule_overloaded_returns_nonzero(self, capsys):
        rc = main(["replay", "--steps", "4", "--buckets", "1",
                   "--analyses", "TOPO_HYBRID"])
        assert rc == 1
        assert "queue grows" in capsys.readouterr().out

    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main(["replay", "--steps", "10", "--trace", str(out),
                   "--jsonl", str(jsonl)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) > 0
        assert jsonl.exists() and jsonl.read_text().count("\n") > 10
        text = capsys.readouterr().out
        assert "trace validation: ok" in text
        assert "critical path" in text
        assert "trace vs core.breakdown" in text

    def test_trace_functional_mode(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "func.json"
        rc = main(["replay", "--functional", "--steps", "2",
                   "--trace", str(out)])
        assert rc == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_functional_wall_export_stays_on_the_wall_clock(self, tmp_path,
                                                           capsys):
        """A functional trace is exported on the wall clock; counter
        series carry only trace-clock stamps, so none may reach it (they
        used to land hours before the spans)."""
        import json
        import time

        out = tmp_path / "func.json"
        t0 = time.perf_counter() * 1e6
        rc = main(["replay", "--functional", "--steps", "2",
                   "--trace", str(out)])
        t1 = time.perf_counter() * 1e6
        assert rc == 0
        events = json.loads(out.read_text())["traceEvents"]
        timed = [e for e in events if e["ph"] != "M"]
        assert timed and not [e for e in timed if e["ph"] == "C"]
        first_b = min(e["ts"] for e in timed if e["ph"] == "B")
        last_e = max(e["ts"] for e in timed if e["ph"] == "E")
        # Slices and flow arrows lie in the span window; instants (the
        # bucket processes' starts, the shutdown hand-offs) may fall just
        # outside it, but never outside the run.
        assert all(first_b <= e["ts"] <= last_e
                   for e in timed if e["ph"] != "i")
        assert all(t0 <= e["ts"] <= t1 for e in timed)

    def test_functional_replay_needs_an_observer(self, tmp_path):
        with pytest.raises(SystemExit, match="--functional replays only"):
            main(["replay", "--functional", "--steps", "2",
                  "--out-dir", str(tmp_path)])

    def test_trace_relative_out_lands_under_out_dir(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["replay", "--steps", "3", "--buckets", "4",
                   "--out-dir", "artifacts", "--trace", "mytrace.json",
                   "--jsonl", "events.jsonl"])
        assert rc == 0
        # explicit relative paths are re-rooted under --out-dir, not CWD
        assert (tmp_path / "artifacts" / "mytrace.json").exists()
        assert (tmp_path / "artifacts" / "events.jsonl").exists()
        assert not (tmp_path / "mytrace.json").exists()
        assert not (tmp_path / "events.jsonl").exists()

    def test_perf_report_relative_html_lands_under_out_dir(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        monkeypatch.chdir(tmp_path)
        empty = str(tmp_path / "empty")
        rc = main(["perf", "report", "--store", empty, "--baseline", empty,
                   "--out-dir", "artifacts", "--html", "dash.html"])
        assert rc == 0
        assert (tmp_path / "artifacts" / "dash.html").exists()
        assert not (tmp_path / "dash.html").exists()

    def test_trace_reports_causal_path(self, tmp_path, capsys):
        rc = main(["replay", "--steps", "3", "--trace",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path (last-finishing chain)" in out
        assert "bounded by:" in out

    def test_trace_diff_against_previous_run(self, tmp_path, capsys):
        jsonl = tmp_path / "base.jsonl"
        assert main(["replay", "--steps", "3", "--buckets", "4", "--trace",
                     "--out-dir", str(tmp_path),
                     "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        rc = main(["replay", "--steps", "3", "--buckets", "2", "--trace",
                   "--out-dir", str(tmp_path), "--diff", str(jsonl)])
        out = capsys.readouterr().out
        assert rc == 1  # two buckets starve: the queue grows
        assert "queue grows" in out
        assert "trace diff" in out
        assert "retry_backoff" in out
        assert (tmp_path / "trace_diff.html").exists()

    def test_blame_writes_report(self, tmp_path, capsys):
        import json

        rc = main(["replay", "--steps", "3", "--buckets", "4", "--blame",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blame attribution" in out
        assert "exact-sum check: ok" in out
        payload = json.loads((tmp_path / "repro_blame.json").read_text())
        assert payload["makespan"] == pytest.approx(
            sum(payload["overall"].values()))

    def test_blame_from_exported_trace(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["replay", "--steps", "3", "--trace",
                     "--out-dir", str(tmp_path), "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        rc = main(["replay", "--from", str(jsonl), "--blame",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "causal path" in out
        assert "exact-sum check: ok" in out

    def test_simulate_with_report(self, capsys):
        rc = main(["simulate", "--steps", "2", "--grid", "10", "8", "6",
                   "--ranks", "2", "1", "1", "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bucket occupancy" in out
        assert "in-transit activity" in out

    def test_blame_default_output_lands_under_out_dir(self, tmp_path,
                                                      monkeypatch, capsys):
        """The default blame JSON must land under --out-dir, never the
        process CWD (regression lock for the artifact-scatter bug)."""
        monkeypatch.chdir(tmp_path)
        rc = main(["replay", "--steps", "2", "--buckets", "2", "--blame",
                   "--out-dir", "artifacts"])
        assert rc == 1  # two buckets starve: the queue grows
        assert (tmp_path / "artifacts" / "repro_blame.json").exists()
        assert not (tmp_path / "repro_blame.json").exists()


class TestReplayCli:
    def test_observers_share_one_replay(self, tmp_path, monkeypatch,
                                        capsys):
        """--trace, --jsonl and --blame attach to one run, and what each
        writes equals what a separate run writes."""
        from repro.core.runner import ScaledExperiment

        calls = []
        real = ScaledExperiment.run_schedule

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ScaledExperiment, "run_schedule", counting)
        together, apart = tmp_path / "together", tmp_path / "apart"
        assert main(["replay", "--steps", "3", "--out-dir", str(together),
                     "--trace", "--jsonl", "t.jsonl", "--blame"]) == 0
        assert len(calls) == 1
        assert main(["replay", "--steps", "3", "--out-dir", str(apart),
                     "--trace", "--jsonl", "t.jsonl"]) == 0
        assert main(["replay", "--steps", "3", "--out-dir", str(apart),
                     "--blame"]) == 0
        for name in ("repro_trace.json", "t.jsonl", "repro_blame.json"):
            assert _without_wall(together / name) == \
                _without_wall(apart / name)

    def test_from_refuses_to_write_a_trace(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        assert main(["replay", "--steps", "2", "--out-dir", str(tmp_path),
                     "--jsonl", str(jsonl)]) == 0
        for extra in (["--trace"], ["--jsonl", "again.jsonl"], []):
            with pytest.raises(SystemExit, match="--from FILE"):
                main(["replay", "--from", str(jsonl), "--out-dir",
                      str(tmp_path), *extra])

    @pytest.mark.parametrize("content, message", [
        ("", "in.jsonl: no spans to blame or diff"),
        ('{"not": "a span"}\n', "in.jsonl:1: record type None is not span, "
         "instant, flow or metrics"),
        (None, "cannot read trace .*in.jsonl: No such file"),
    ], ids=["no-spans", "not-a-trace-record", "missing"])
    def test_from_and_diff_refuse_what_is_not_a_trace(self, tmp_path,
                                                      content, message):
        path = tmp_path / "in.jsonl"
        if content is not None:
            path.write_text(content)
        for argv in (["--from", str(path), "--blame"],
                     ["--steps", "2", "--diff", str(path)]):
            with pytest.raises(SystemExit, match=message) as exc:
                main(["replay", *argv, "--out-dir", str(tmp_path)])
            assert "\n" not in exc.value.code


@pytest.mark.parametrize("verb, flag, reason", [
    (verb, flag, reason)
    for verb in ("replay", "perf", "submit")
    for flag, reason in (("--steps", "n_steps must be >= 1, got 0"),
                         ("--buckets", "need at least one bucket per shard"),
                         ("--interval", "analysis_interval must be >= 1"))
    if (verb, flag) != ("perf", "--interval")])
def test_a_bad_plan_flag_exits_with_the_plans_reason(tmp_path, monkeypatch,
                                                     verb, flag, reason):
    monkeypatch.chdir(tmp_path)
    argv = {"replay": ["replay"], "perf": ["perf", "record"],
            "submit": ["submit", "--jobs", "b.jsonl", "--tenant", "a",
                       "--name", "x"]}[verb]
    with pytest.raises(SystemExit, match=reason) as exc:
        main([*argv, flag, "0"])
    assert isinstance(exc.value.code, str)  # a message, not a traceback
    assert not (tmp_path / "b.jsonl").exists()


@pytest.mark.parametrize("argv, error", [
    (["serve", "--jobs", "b.jsonl", "--refresh", "-1"],
     "--refresh: must be >= 0.0, got -1"),
    (["serve", "--jobs", "b.jsonl", "--workers", "0"],
     "--workers: must be >= 1, got 0"),
    (["serve", "--jobs", "b.jsonl", "--default-quota", "0"],
     "--default-quota: must be >= 1, got 0"),
    (["serve", "--jobs", "b.jsonl", "--min-cache-hit-rate", "5"],
     "--min-cache-hit-rate: must be in [0.0, 1.0], got 5"),
    (["serve", "--jobs", "b.jsonl", "--min-cache-hit-rate", "nan"],
     "--min-cache-hit-rate: must be in [0.0, 1.0], got nan"),
    (["serve", "--jobs", "b.jsonl", "--follow", "--jsonl"],
     "--jsonl: not allowed with argument --follow"),
    (["track", "--steps", "0"], "--steps: must be >= 1, got 0"),
    (["render", "--size", "0"], "--size: must be >= 1, got 0"),
    (["render", "--stride", "0"], "--stride: must be >= 1, got 0"),
    (["replay", "--top-kernels", "-3"], "--top-kernels: must be >= 0, got -3"),
    (["perf", "compare", "--window", "0"], "--window: must be >= 1, got 0"),
    (["perf", "report", "--window", "0"], "--window: must be >= 1, got 0"),
    (["jobs", "--limit", "-2"], "--limit: must be >= 0, got -2"),
    (["jobs", "--limit", "x"], "--limit: invalid int value: 'x'"),
], ids=["serve-refresh", "serve-workers", "serve-default-quota",
        "serve-min-hit-rate", "serve-min-hit-rate-nan", "serve-follow-jsonl",
        "track-steps", "render-size", "render-stride", "replay-top-kernels",
        "perf-compare-window", "perf-report-window", "jobs-limit",
        "jobs-limit-nan"])
def test_parse_time_refusals(argv, error, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert build_parser().parse_args(
        ["serve", "--jobs", "b.jsonl", "--refresh", "0"]).refresh == 0.0
    assert build_parser().parse_args(
        ["serve", "--jobs", "b.jsonl", "--min-cache-hit-rate", "1"]
    ).min_cache_hit_rate == 1.0


class TestCheckCli:
    def test_every_check_passes(self, tmp_path, capsys):
        assert main(["check", "--out-dir", str(tmp_path)]) == 0
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("check ")]
        assert verdicts == [f"check {name}: PASS" for name in CHECKS]
        assert list(CHECKS) == ["faults", "control", "capacity",
                                "capacity-leak"]
        for name in CHECKS:
            assert (tmp_path / f"repro_{name}.json").exists()
        assert (tmp_path / "repro_capacity.jsonl").read_text()

    @staticmethod
    def _break(name, monkeypatch):
        """Make check ``name``'s scenario outcome miss its expectation."""
        if name == "faults":
            import repro.faults.experiment as experiment

            real = experiment.run_resilience_experiment

            def lose_a_task(*args, **kwargs):
                report = real(*args, **kwargs)
                report.accounting["completed"] -= 1
                return report
            monkeypatch.setattr(experiment, "run_resilience_experiment",
                                lose_a_task)
        elif name == "control":
            import repro.control as control

            real = control.run_control_scenario

            def slower(*args, **kwargs):
                report = real(*args, **kwargs)
                report.adaptive_makespan = report.static_makespan + 1.0
                return report
            monkeypatch.setattr(control, "run_control_scenario", slower)
        else:
            import repro.obs.capacity as capacity

            real = capacity.run_capacity_scenario

            def misreport(*args, **kwargs):
                outcome = real(*args, **kwargs)
                leaks = outcome["merged"].leaks
                if kwargs["inject_leak"]:
                    leaks.clear()  # the scan finds nothing
                else:
                    leaks.append({"region_id": 1, "nbytes": 64, "shard": 0,
                                  "source": "sim-0", "analysis": None,
                                  "timestep": 0, "tenant": "alpha",
                                  "job": "alpha-cap"})
                return outcome
            monkeypatch.setattr(capacity, "run_capacity_scenario",
                                misreport)

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_a_check_fails_when_its_expectation_breaks(self, name, tmp_path,
                                                       monkeypatch, capsys):
        self._break(name, monkeypatch)
        assert main(["check", name, "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.rstrip().endswith(f"check {name}: FAIL")
        assert "FAILED" in out

    def test_unknown_check_is_refused(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown check"):
            main(["check", "faults", "nope", "--out-dir", str(tmp_path)])
        assert not (tmp_path / "repro_faults.json").exists()


class TestServiceCli:
    def _submit(self, jobs, tenant, name, steps, **extra):
        argv = ["submit", "--jobs", str(jobs), "--tenant", tenant,
                "--name", name, "--steps", str(steps), "--buckets", "4"]
        for flag, value in extra.items():
            argv += [f"--{flag}", str(value)]
        assert main(argv) == 0

    def test_submit_appends_valid_jsonl(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "batch.jsonl"
        self._submit(jobs, "alpha", "a1", 3)
        self._submit(jobs, "beta", "b1", 2, shards=2)
        lines = [json.loads(x) for x in jobs.read_text().splitlines()]
        assert [x["tenant"] for x in lines] == ["alpha", "beta"]
        assert lines[1]["n_shards"] == 2
        assert "queued beta/b1" in capsys.readouterr().out

    def test_submit_rejects_invalid_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["submit", "--jobs", str(tmp_path / "b.jsonl"),
                  "--tenant", "a", "--name", "x", "--steps", "0"])

    @pytest.mark.parametrize("analyses", [
        ["VIS_INSITU"], ["STATS_INSITU", "TOPO_HYBRID"]])
    def test_submit_refuses_in_situ_only_analyses(self, tmp_path, analyses):
        """Such a job used to finish DONE with makespan 0.0 (or lose the
        in-situ variant's tasks): it has no in-transit stage to replay."""
        jobs = tmp_path / "b.jsonl"
        with pytest.raises(SystemExit, match="no in-transit stage"):
            main(["submit", "--jobs", str(jobs), "--tenant", "a",
                  "--name", "x", "--analyses", *analyses])
        assert not jobs.exists()

    @pytest.mark.parametrize("line, error", [
        ('{"tenant": "a", "name": "j", "analyses": ["VIS_INSITU"]}',
         "analysis 'VIS_INSITU' has no in-transit stage"),
        ('{"tenant": "a", "name": "j", "n_buckets": true}',
         "n_buckets must be an int"),
        ('{"tenant": "a", "name": "j", "lease_timeout": -1}',
         "lease_timeout must be > 0"),
        ("5", "a job must be a JSON object, got int"),
        ('"abc"', "a job must be a JSON object, got str"),
    ], ids=["in-situ-only", "bool-count", "negative-lease", "number",
            "string"])
    def test_serve_refuses_a_bad_line_at_its_location(self, tmp_path, line,
                                                      error):
        jobs = tmp_path / "bad.jsonl"
        jobs.write_text('{"tenant": "a", "name": "ok"}\n' + line + "\n")
        with pytest.raises(SystemExit, match=f"bad.jsonl:2: {error}"):
            main(["serve", "--jobs", str(jobs), "--out-dir", str(tmp_path)])

    def test_serve_reads_the_git_sha_once(self, tmp_path, monkeypatch):
        """Every job record carries the commit, read once per process and
        working directory: read per record, a 1,000-job serve spent
        2.4 s of 4.1 s forking git."""
        import subprocess

        from repro.obs import perf

        jobs = tmp_path / "b.jsonl"
        jobs.write_text('{"tenant": "a", "name": "j", "n_steps": 1, '
                        '"n_buckets": 2}\n' * 50)
        git_calls = []
        run = subprocess.run

        def counted(cmd, *args, **kwargs):
            if cmd[0] == "git":
                git_calls.append(cmd)
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        perf._git_sha.cache_clear()
        assert main(["serve", "--jobs", str(jobs),
                     "--out-dir", str(tmp_path)]) == 0
        assert len(git_calls) <= 1
        records = perf.RunStore(tmp_path / "service" / "jobs").records()
        assert len(records) == 50
        assert len({r.git_sha for r in records}) == 1

    def test_git_sha_is_none_outside_a_repository(self, tmp_path,
                                                  monkeypatch):
        from repro.obs.perf import git_sha

        monkeypatch.chdir(tmp_path)
        assert git_sha() is None

    def test_serve_batch_quota_and_cache(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "batch.jsonl"
        # Distinct specs per tenant so gamma's jobs cannot ride another
        # tenant's cache entry and must really contend for its quota.
        self._submit(jobs, "alpha", "a1", 2)
        self._submit(jobs, "alpha", "a2", 3)
        self._submit(jobs, "beta", "b1", 4, shards=2)
        self._submit(jobs, "beta", "b2", 5, shards=2)
        self._submit(jobs, "gamma", "g1", 6)
        self._submit(jobs, "gamma", "g2", 7)
        capsys.readouterr()

        rc = main(["serve", "--jobs", str(jobs), "--workers", "3",
                   "--quota", "gamma=1", "--expect-quota-held",
                   "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "quota hold(s)" in out
        assert "shard balance" in out
        report = json.loads((tmp_path / "service_report.json").read_text())
        assert report["all_done"] is True
        assert report["held_events"] > 0
        assert report["cache_hit_rate"] == 0.0
        assert set(report["tenants"]) == {"alpha", "beta", "gamma"}
        gamma_jobs = [j for j in report["jobs"] if j["tenant"] == "gamma"]
        held = [j for j in gamma_jobs if j["held"] > 0]
        assert held  # over-quota job was queued, not run

        # Resubmitting the identical batch over the same state dir hits
        # the schedule cache for every job.
        rc = main(["serve", "--jobs", str(jobs), "--workers", "3",
                   "--quota", "gamma=1", "--min-cache-hit-rate", "1.0",
                   "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "hit rate 100%" in out

    def test_serve_fails_below_min_hit_rate(self, tmp_path, capsys):
        jobs = tmp_path / "batch.jsonl"
        self._submit(jobs, "a", "cold", 2)
        rc = main(["serve", "--jobs", str(jobs),
                   "--min-cache-hit-rate", "1.0",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "CACHE MISS RATE TOO HIGH" in capsys.readouterr().out

    def test_serve_quota_lines_in_batch_file(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "batch.jsonl"
        with open(jobs, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"quota": {"tenant": "a",
                                           "max_concurrent": 1}}) + "\n")
            fh.write(json.dumps({"tenant": "a", "name": "j1",
                                 "n_steps": 2, "n_buckets": 3}) + "\n")
            fh.write(json.dumps({"tenant": "a", "name": "j2",
                                 "n_steps": 3, "n_buckets": 3}) + "\n")
        rc = main(["serve", "--jobs", str(jobs), "--workers", "2",
                   "--expect-quota-held", "--out-dir", str(tmp_path)])
        assert rc == 0, capsys.readouterr().out

    def test_serve_rejects_bad_batch(self, tmp_path):
        jobs = tmp_path / "bad.jsonl"
        jobs.write_text('{"tenant": "a"}\n')
        with pytest.raises(SystemExit, match="name"):
            main(["serve", "--jobs", str(jobs)])
        with pytest.raises(SystemExit, match="no such batch"):
            main(["serve", "--jobs", str(tmp_path / "missing.jsonl")])

    def test_jobs_lists_records(self, tmp_path, capsys):
        jobs = tmp_path / "batch.jsonl"
        self._submit(jobs, "alpha", "a1", 2)
        self._submit(jobs, "beta", "b1", 3)
        assert main(["serve", "--jobs", str(jobs),
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["jobs", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha/a1" in out and "beta/b1" in out
        rc = main(["jobs", "--out-dir", str(tmp_path),
                   "--tenant", "alpha", "--limit", "5"])
        out = capsys.readouterr().out
        assert "alpha/a1" in out and "beta/b1" not in out
        rc = main(["jobs", "--out-dir", str(tmp_path), "--limit", "1"])
        out = capsys.readouterr().out
        assert "alpha/a1" not in out and "beta/b1" in out
        # A negative limit used to drop the *oldest* records silently.
        with pytest.raises(SystemExit) as exc:
            main(["jobs", "--out-dir", str(tmp_path), "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err

    def test_jobs_empty_store(self, tmp_path, capsys):
        assert main(["jobs", "--out-dir", str(tmp_path)]) == 0
        assert "no job records" in capsys.readouterr().out


class TestTopCli:
    """The live view of a draining batch: `serve --follow`/`--jsonl`."""

    def _batch(self, jobs):
        """2 tenants: alpha clean, beta fault-injected past the 3.5x
        slowdown objective (stalls under a short lease)."""
        self._submit(jobs, "alpha", "a1", 4)
        self._submit(jobs, "beta", "b1", 4, **{
            "lease-timeout": 5, "fault-seed": 3,
            "stall-rate": 0.5, "stall-seconds": 40})

    _submit = TestServiceCli._submit

    @staticmethod
    def _live(jobs, tmp_path, *extra):
        return ["serve", "--jobs", str(jobs), "--out-dir", str(tmp_path),
                "--workers", "2", "--jsonl", *extra]

    def test_jsonl_once_streams_attributed_events(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "batch.jsonl"
        self._batch(jobs)
        capsys.readouterr()  # drop the submit confirmations
        rc = main(self._live(jobs, tmp_path))
        assert rc == 0
        captured = capsys.readouterr()
        lines = [json.loads(x) for x in captured.out.strip().splitlines()]
        summary = lines[-1]["summary"]
        events = [x for x in lines if "summary" not in x]
        assert summary["all_done"] and summary["jobs"] == 2
        assert summary["alerts"] == {"alpha": 0, "beta": 1}
        assert summary["events_published"] == len(events)
        # every event is tenant/job-attributed
        assert all(e["tenant"] and e["job_id"] for e in events)
        kinds = {e["kind"] for e in events}
        assert {"job", "span", "probe", "alert"} <= kinds
        # Only events and the summary on stdout; the report is on stderr.
        assert "batch: 2 jobs" in captured.err
        assert "wrote " in captured.err
        assert "wrote " not in captured.out
        assert (tmp_path / "service_report.json").exists()

    def test_same_seed_stream_is_byte_identical(self, tmp_path, capsys):
        jobs = tmp_path / "batch.jsonl"
        self._batch(jobs)
        for run in ("a", "b"):
            assert main(self._live(jobs, tmp_path, "--out",
                                   f"stream_{run}.jsonl", "--state-dir",
                                   str(tmp_path / f"state_{run}"))) == 0
        capsys.readouterr()
        a = (tmp_path / "stream_a.jsonl").read_bytes()
        b = (tmp_path / "stream_b.jsonl").read_bytes()
        assert a == b and a

    def test_rerun_over_the_same_state_is_all_hits(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "batch.jsonl"
        self._batch(jobs)
        argv = self._live(jobs, tmp_path, "--out", "stream.jsonl")
        assert main(argv) == 0
        cold = (tmp_path / "stream.jsonl").read_bytes()
        assert main(argv + ["--min-cache-hit-rate", "1.0"]) == 0
        capsys.readouterr()
        assert (tmp_path / "stream.jsonl").read_bytes() != cold
        report = json.loads((tmp_path / "service_report.json").read_text())
        assert report["cache_hit_rate"] == 1.0

    def test_expect_alert_gates(self, tmp_path, capsys):
        jobs = tmp_path / "batch.jsonl"
        self._batch(jobs)
        for state, live in (("live", ["--jsonl"]), ("plain", [])):
            base = ["serve", "--jobs", str(jobs), "--out-dir", str(tmp_path),
                    "--workers", "2", "--state-dir", str(tmp_path / state),
                    *live]
            assert main(base + ["--expect-alerts", "beta",
                                "--expect-clean", "alpha"]) == 0
            capsys.readouterr()
            # inverted expectations must fail the gate
            assert main(base + ["--expect-alerts", "alpha"]) == 1
            assert "EXPECTED ALERTS for tenant 'alpha'" in \
                capsys.readouterr()[1 if live else 0]
            assert main(base + ["--expect-clean", "beta"]) == 1
            assert "EXPECTED NO ALERTS for tenant 'beta'" in \
                capsys.readouterr()[1 if live else 0]

    def test_follow_text_view(self, tmp_path, capsys):
        jobs = tmp_path / "batch.jsonl"
        self._submit(jobs, "alpha", "a1", 2)
        rc = main(["serve", "--jobs", str(jobs), "--out-dir", str(tmp_path),
                   "--workers", "2", "--follow", "--refresh", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "events published" in out
        assert "repro serve — t=" in out and "batch: 1 jobs" in out

    def test_control_artifact_lands_under_out_dir(self, tmp_path,
                                                  monkeypatch, capsys):
        """`repro check control` from a subdirectory with a relative
        --out-dir must anchor the JSON at the invoking CWD (regression
        lock)."""
        monkeypatch.chdir(tmp_path)
        rc = main(["check", "control", "--out-dir", "artifacts"])
        assert rc == 0
        assert (tmp_path / "artifacts" / "repro_control.json").exists()
        assert not (tmp_path / "repro_control.json").exists()


class TestCapacityCli:
    def test_clean_gate_passes_and_writes_artifact(self, tmp_path, capsys):
        import json

        rc = main(["check", "capacity", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "capacity gate: PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "repro_capacity.json").read_text())
        assert report["merged"]["leaks"] == []
        assert not report["inject_leak"]

    def test_injected_leak_must_be_found(self, tmp_path, capsys):
        """`check capacity-leak` passes only because the leak scan finds
        the seeded region (and nothing beside it)."""
        import json

        from repro.obs.capacity import LEAK_INJECTOR_NODE

        rc = main(["check", "capacity-leak", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "capacity gate: PASS" in capsys.readouterr().out
        leaks = json.loads((tmp_path / "repro_capacity-leak.json").read_text()
                           )["merged"]["leaks"]
        assert leaks
        assert {leak["source"] for leak in leaks} == {LEAK_INJECTOR_NODE}

    def test_same_seed_event_stream_is_byte_identical(self, tmp_path,
                                                      capsys):
        for name in ("a", "b"):
            assert main(["check", "capacity",
                         "--out-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        stream = (tmp_path / "a" / "repro_capacity.jsonl").read_bytes()
        assert stream == (tmp_path / "b" / "repro_capacity.jsonl").read_bytes()
        assert stream


def test_importing_the_cli_leaves_scipy_unloaded():
    """Cold start: ``import repro.cli`` must not pull scipy in (no module
    under ``src/`` imports it any more; this keeps it that way). Checked
    in a fresh interpreter, no timing."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

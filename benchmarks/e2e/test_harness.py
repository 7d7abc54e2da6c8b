"""Unit tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def synthetic_rounds(slow_rounds, n=100, wall=0.2, sample=0.011, factor=1.5):
    """Rounds on a host that runs ``factor`` x slower during
    ``slow_rounds``; the sample before round i sees round i's host."""
    speed = [factor if i in slow_rounds else 1.0 for i in range(n + 1)]
    rounds = measure.Rounds()
    rounds.walls = [wall * speed[i] for i in range(n)]
    rounds.calibs = [sample * s for s in speed]
    return rounds


def test_normalisation_cancels_alternating_slowdown():
    rounds = synthetic_rounds(set(range(0, 101, 2)))
    true_ms = 0.2 / 0.011 * calib.CALIB_REF_MS
    assert measure.median(rounds.walls) == pytest.approx(0.25)  # raw: +25 %
    assert measure.p50_ms(rounds.ratios) == pytest.approx(true_ms, rel=0.01)
    assert measure.sustained_s(rounds.ratios) * 1e3 == pytest.approx(
        true_ms, rel=0.01)


def test_normalisation_cancels_slow_blocks():
    slow = set(range(10, 30)) | set(range(50, 85))
    rounds = synthetic_rounds(slow)
    true_ms = 0.2 / 0.011 * calib.CALIB_REF_MS
    assert measure.median(rounds.walls) == pytest.approx(0.3)  # raw: +50 %
    assert measure.p50_ms(rounds.ratios) == pytest.approx(true_ms, rel=1e-9)
    assert measure.sustained_s(rounds.ratios) * 1e3 == pytest.approx(
        true_ms, rel=0.01)


def test_normalise_needs_a_sample_on_both_sides():
    with pytest.raises(ValueError):
        measure.normalise([0.2, 0.2], [0.011, 0.011])


@pytest.mark.parametrize("n, expected", [
    (5, 50), (20, 50), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (1000, 99)])
def test_percentile_rule_keeps_ten_samples_beyond(n, expected):
    assert measure.top_percentile(n) == expected
    beyond = n - -(-n * expected // 100)
    assert expected == 50 or beyond >= measure.MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile([3.0], 90) == 3.0


def test_trimmed_mean_drops_a_tenth_at_each_end():
    values = [100.0] + [1.0] * 18 + [-100.0]
    assert measure.trimmed_mean(values) == 1.0
    # two slow rounds in ten are a property of the program and count
    assert measure.trimmed_mean([1.0] * 8 + [2.0] * 2) == pytest.approx(1.125)


def test_timed_rounds_stops_at_the_budget_but_not_below_the_floor():
    spent = measure.timed_rounds(lambda: None, lambda out: [], 50,
                                 budget=0.0, floor=4)
    assert spent.n == 4 and len(spent.calibs) == 5
    unhurried = measure.timed_rounds(lambda: None, lambda out: [], 6,
                                     budget=60.0, floor=4)
    assert unhurried.n == 6


def test_timed_rounds_counts_failures_and_keeps_going():
    outputs = iter([1, 2, None, 4])

    def run_round():
        value = next(outputs)
        if value is None:
            raise RuntimeError("boom")
        return value

    rounds = measure.timed_rounds(
        run_round, lambda out: ["odd"] if out == 1 else [], 4)
    assert rounds.n == 4 and len(rounds.calibs) == 5
    assert rounds.failed == 2
    assert "odd" in rounds.errors and "boom" in rounds.errors[-1]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 7] > grandchild [2, 5]; sibling [8, 9]
    recorded = [["core:root", 0.0, 10.0, -1, 0],
                ["des:child", 1.0, 7.0, 0, 0],
                ["staging:grandchild", 2.0, 5.0, 1, 0],
                ["des:sibling", 8.0, 9.0, 0, 0]]
    assert spans.self_times(recorded) == [3.0, 3.0, 3.0, 1.0]
    by_round = spans.layer_self_seconds(recorded)
    assert dict(by_round[0]) == {"core": 3.0, "des": 4.0, "staging": 3.0}


def test_recorder_nests_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    recorder = spans.SpanRecorder([(Layer, "outer", "a"),
                                   (Layer, "inner", "b")])
    assert Layer().outer() == 2 and not recorder.spans  # not installed yet
    recorder.round_id = 7
    recorder.install()
    assert Layer().outer() == 2
    recorder.uninstall()
    assert Layer.outer is original
    assert Layer().outer() == 2 and len(recorder.spans) == 2
    (outer, inner) = recorder.spans
    assert outer[spans.NAME] == "a:Layer.outer" and outer[spans.PARENT] == -1
    assert inner[spans.NAME] == "b:Layer.inner" and inner[spans.PARENT] == 0
    assert inner[spans.ROUND] == 7
    assert outer[spans.START] <= inner[spans.START] <= inner[spans.END] \
        <= outer[spans.END]


def test_declared_names_are_well_formed_and_unique():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in DECLARED[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(DECLARED["per_layer"]) <= 128
    assert DECLARED["paths"] == ["benchmarks/e2e"]


def test_workloads_match_the_declaration():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    assert list(workloads.WORKLOADS) == [w["name"]
                                         for w in DECLARED["workloads"]]
    pinned = json.loads((HERE / "expected.json").read_text())
    assert set(pinned) == set(workloads.WORKLOADS)


def printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit from the human-readable lines of a run."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            rows[parts[0]] = parts[2]
    return rows


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_output_lists_the_declared_names_and_units(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "replay_long", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert printed_metrics(proc.stdout) == declared
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "replay_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""

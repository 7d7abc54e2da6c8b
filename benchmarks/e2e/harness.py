"""One benchmark run, its cold starts, its traced phase and the committed
trajectory. ``run.py`` is the command line; this module is importable
(by ``aa.py`` and the unit tests) without side effects."""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import calib
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
RUN_PY = HERE / "run.py"
EXPECTED = HERE / "expected.json"

#: The seed ``expected.json`` is pinned for.
DEFAULT_SEED = 2012
ROUNDS = 100
#: A host so slow that ``ROUNDS`` rounds do not fit in ``--seconds`` of
#: wall clock stops the timed phase early, but never below this many: the
#: driver caps the total time of all its runs, and this host has been seen
#: to run 1.7x slower for half an hour at a time.
ROUNDS_FLOOR = 50
WARMUP_ROUNDS = 3
COLD_STARTS = 3
#: Seconds between the calibration samples a cold-start child takes.
COLD_SAMPLE_EVERY = 0.1
TRACED_PAIRS = 20
SMOKE_ROUNDS = 5
#: ``core.replay_fixed_ms + core.replay_us_per_task x tasks`` must predict
#: the ``replay_long`` round this closely, or ``--record`` prints a warning.
FIT_TOLERANCE = 0.10


def declared() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in declared()[section]}


def bounds() -> dict[str, float]:
    return {m["name"]: m["bound"] for m in declared()["end_to_end"]}


def use_numpy_backend() -> None:
    """The harness picks the backend; ``REPRO_BACKEND`` was dropped from
    the environment by ``run.py``."""
    from repro.backend import set_backend
    set_backend("numpy")


# -- output checks --------------------------------------------------------------


def expected_mismatch(workload: str, seed: int, summary: dict) -> list[str]:
    """The pinned digests apply to the default seed only."""
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads(EXPECTED.read_text()).get(workload)
    if summary != pinned:
        return [f"{workload}: output differs from expected.json: "
                f"{summary} != {pinned}"]
    return []


def first_operation(workload: Any) -> tuple[float, dict, list[str]]:
    """One round with every set-up check applied: the workload's own
    invariants and, for the default seed, ``expected.json``. Returns its
    reference-host milliseconds, its summary and what was wrong."""
    ref_ms, out = measure.timed_once(workload.round)
    summary, errors = workload.verify(out)
    errors += expected_mismatch(workload.name, workload.seed, summary)
    return ref_ms, summary, errors


def pin_expected() -> int:
    """Rewrite ``expected.json`` from the default seed (``benchmark`` PRs
    only). Refuses when the two backends disagree."""
    import workloads as wl
    use_numpy_backend()
    pinned, status = {}, 0
    for name, cls in wl.WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        summary, errors = workload.verify(workload.round())
        if wl.reference_summary(workload) != summary:
            errors.append("reference backend disagrees with numpy")
        for line in errors:
            print(f"ERROR {name}: {line}", file=sys.stderr)
            status = 1
        pinned[name] = summary
    if status == 0:
        EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")
    return status


# -- cold starts --------------------------------------------------------------


def child_main(workload: str, seed: int) -> int:
    """A fresh interpreter's whole life: imports, fixtures, first
    operation, its result checked.

    The host changes speed within the second or so a cold start takes, and
    two readings around it miss that, so the child calibrates itself on
    the way: an interval timer runs one calibration sample every
    ``COLD_SAMPLE_EVERY`` seconds between the bytecodes of whatever the
    start-up is doing. The parent subtracts the time the samples took.
    """
    samples: list[float] = []
    signal.signal(signal.SIGALRM,
                  lambda _signum, _frame: samples.append(calib.sample()))
    signal.setitimer(signal.ITIMER_REAL, COLD_SAMPLE_EVERY / 2,
                     COLD_SAMPLE_EVERY)
    try:
        import workloads as wl
        use_numpy_backend()
        instance = wl.WORKLOADS[workload](seed)
        summary, errors = instance.verify(instance.round())
        errors += expected_mismatch(workload, seed, summary)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    print(json.dumps({"samples": samples, "errors": errors}))
    return 1 if errors else 0


def cold_starts(workload: str, seed: int, n: int
                ) -> tuple[list[float], list[str]]:
    """``n`` cold starts, spawn to exit, in reference-host seconds."""
    command = [sys.executable, str(RUN_PY), "--cold-child",
               "--workload", workload, "--seed", str(seed)]
    seconds, errors = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=False)
        wall = time.perf_counter() - t0
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            errors.append(f"cold start exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-400:]}")
            continue
        errors += report["errors"]
        samples = report["samples"]
        seconds.append((wall - sum(samples)) / measure.median(samples)
                       * calib.CALIB_REF_MS / 1e3)
    return seconds, errors


# -- one run --------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rounds: int = ROUNDS, n_cold: int = COLD_STARTS
                 ) -> dict[str, Any]:
    """One benchmark run of one workload; returns every number it took.

    Untraced: ``n_cold`` cold starts, set-up, warm-up, then ``rounds``
    timed rounds (fewer, down to ``ROUNDS_FLOOR``, when they do not fit in
    ``seconds``). Traced: no cold starts (a traced run reports no
    ``setup_s``), and the timed phase is ``TRACED_PAIRS`` untraced rounds
    alternating with as many span-wrapped ones, then the layer probes.
    """
    import workloads as wl
    use_numpy_backend()
    import_mb = measure.peak_rss_mb()
    cold_s, errors = cold_starts(name, seed, 0 if trace else n_cold)
    calib.reading()  # the loop's own first pass runs cold: not a reading

    fixtures_ms, workload = measure.timed_once(lambda: wl.WORKLOADS[name](seed))
    first_ms, summary, first_errors = first_operation(workload)
    errors += first_errors
    if not first_errors and wl.reference_summary(workload) != summary:
        errors.append(f"{name}: reference backend disagrees with numpy")

    def check(out: Any) -> list[str]:
        again, problems = workload.verify(out)
        if again != summary:
            problems.append(f"{name}: output changed between rounds")
        return problems

    measure.timed_rounds(workload.round, check, WARMUP_ROUNDS - 1)
    warm_mb = measure.peak_rss_mb()

    recorder = None
    if trace:
        import spans
        recorder = spans.SpanRecorder(spans.boundaries())
        both, ratios, traced_ratios = measure.timed_pairs(
            workload.round, recorder.traced(workload.round), check,
            min(TRACED_PAIRS, rounds))
        walls = both.walls[0::2]
    else:
        both = measure.timed_rounds(workload.round, check, rounds,
                                    budget=seconds,
                                    floor=min(rounds, ROUNDS_FLOOR))
        ratios, walls = both.ratios, both.walls
    errors += both.errors

    op_p50 = measure.p50_ms(ratios)
    result: dict[str, Any] = {
        "workload": name, "seed": seed, "attempted": both.n,
        "failed": both.failed, "errors": errors,
        "work": workload.work, "work_unit": workload.work_unit,
        "top_percentile": measure.top_percentile(len(ratios)),
        "end_to_end": {
            "setup_s": measure.median(cold_s) if cold_s else 0.0,
            "op_p50_ms": op_p50,
            "work_per_s": workload.work / measure.sustained_s(ratios),
            "peak_rss_mb": measure.peak_rss_mb(),
        },
        "harness": {
            **both.host_stats(),
            "harness.op_p50_raw_ms": measure.median(walls) * 1e3,
            "harness.op_p90_ms": measure.percentile_ms(ratios, 90),
            "harness.op_iqr_frac": measure.iqr_frac(ratios),
            "harness.rounds": len(ratios),
        },
    }
    if recorder is not None:
        import probes
        per_layer = dict(result["harness"])
        per_layer["harness.trace_overhead_frac"] = (
            measure.p50_ms(traced_ratios) / op_p50 - 1.0)
        per_layer.update(probes.profile_round(workload.round))
        per_layer.update(probes.layer_probes(seed))
        import_ms, proc = measure.timed_once(lambda: subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120, check=False))
        if proc.returncode != 0:
            errors.append(f"import repro.cli failed: {proc.stderr[-400:]}")
        per_layer.update({
            "cli.import_s": import_ms / 1e3,
            "setup.fixtures_s": fixtures_ms / 1e3,
            "setup.first_op_ms": first_ms - op_p50,
            "mem.import_mb": import_mb,
            "mem.growth_mb": result["end_to_end"]["peak_rss_mb"] - warm_mb,
        })
        result["per_layer"] = per_layer
        write_trace(name, recorder.spans, both)
    return result


def write_trace(name: str, span_list: list[list[Any]],
                both: measure.Rounds) -> None:
    """Dump the in-memory spans, with per-round layer self times in
    reference-host milliseconds, to ``results/trace_<workload>.json``.
    The ``k``-th traced round is round ``2k + 1`` of ``both``."""
    import spans
    by_round = spans.layer_self_seconds(span_list)
    layers = sorted({layer for row in by_round.values() for layer in row})
    walls, ratios = both.walls, both.ratios
    self_ms = {
        layer: measure.median([
            row.get(layer, 0.0) / walls[2 * k + 1] * ratios[2 * k + 1]
            * calib.CALIB_REF_MS for k, row in by_round.items()])
        for layer in layers}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{name}.json").write_text(json.dumps({
        "workload": name, "rounds": len(by_round),
        "fields": ["name", "start", "end", "parent", "round"],
        "layer_self_ms_p50": self_ms,
        "round_ms_p50": measure.p50_ms(ratios[1::2]),
        "spans": span_list}))


# -- printing -------------------------------------------------------------------


def print_run(result: dict[str, Any], trace: bool) -> int:
    """Every metric by name with its unit, then the one JSON line."""
    section = "per_layer" if trace else "end_to_end"
    unit_of = units(section)
    values = result[section]
    missing = sorted(set(unit_of) ^ set(values))
    if missing:
        raise SystemExit(f"metric names differ from BENCHMARK.json: {missing}")
    n = result["harness"]["harness.rounds"]
    print(f"# {result['workload']} seed={result['seed']} rounds={n} "
          f"work/round={result['work']} {result['work_unit']} "
          f"CALIB_REF_MS={calib.CALIB_REF_MS}")
    for name in unit_of:
        print(f"{name:<34} {values[name]:>14.4f} {unit_of[name]:<10} n={n}")
    if not trace:
        for name, value in result["harness"].items():
            print(f"{name:<34} {value:>14.4f}")
    print(f"# p{result['top_percentile']} is the highest percentile "
          f"n={n} supports")
    for line in result["errors"]:
        print(f"ERROR {line}", file=sys.stderr)
    correct = not result["errors"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit_of[name]}
                    for name in unit_of}}))
    return 0 if correct else 1


# -- recording the committed trajectory -------------------------------------------


def provenance() -> dict[str, Any]:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "CALIB_REF_MS": calib.CALIB_REF_MS}


def record(seed: int, seconds: float, runs: int) -> int:
    """Run every workload ``runs`` times untraced (seeds ``seed``,
    ``seed + 1``, ...) and once traced, and rewrite
    ``results/BENCH_*.json`` / ``LAYERS_*.json``."""
    import workloads as wl
    status = 0
    RESULTS.mkdir(exist_ok=True)
    stamp = provenance()
    for name in wl.WORKLOADS:
        listed = [run_in_child(name, seed + i, seconds, trace=False)
                  for i in range(runs)]
        columns = {metric: [run["metrics"][metric]["value"] for run in listed]
                   for metric in bounds()}
        bench = {**stamp, "workload": name,
                 "units": units("end_to_end"),
                 "median": {m: measure.median(v) for m, v in columns.items()},
                 "iqr_frac": {m: measure.iqr_frac(v)
                              for m, v in columns.items()},
                 "runs": listed}
        (RESULTS / f"BENCH_{name}.json").write_text(
            json.dumps(bench, indent=1) + "\n")
        for metric, bound in bounds().items():
            print(f"{name:<20} {metric:<12} median "
                  f"{bench['median'][metric]:>12.4f}  iqr/median "
                  f"{bench['iqr_frac'][metric]:>6.2%}  bound {bound:.0%}")
        layers = run_in_child(name, seed, seconds, trace=True)
        (RESULTS / f"LAYERS_{name}.json").write_text(json.dumps(
            {**stamp, "workload": name, "units": units("per_layer"),
             **layers}, indent=1) + "\n")
        if not all(run["correct"] for run in listed + [layers]):
            status = 1
        if name == "replay_long":
            m = {k: v["value"] for k, v in layers["metrics"].items()}
            # The round is two replays, so the fixed cost is paid twice.
            predicted = (2 * m["core.replay_fixed_ms"]
                         + m["core.replay_us_per_task"]
                         * wl.WORKLOADS[name].work / 1e3)
            measured = bench["median"]["op_p50_ms"]
            print(f"replay_long fit: predicted {predicted:.1f} ms, "
                  f"measured {measured:.1f} ms")
            if abs(predicted / measured - 1.0) > FIT_TOLERANCE:
                print("WARNING: core.replay_fixed_ms/us_per_task do not "
                      f"predict the replay_long round within "
                      f"{FIT_TOLERANCE:.0%}")
    return status


def run_in_child(name: str, seed: int, seconds: float, trace: bool
                 ) -> dict[str, Any]:
    """One single-workload run in a fresh interpreter (what the driver
    does); echoes its report and returns its last-line JSON plus the
    seed."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: run printed nothing (exit {proc.returncode})")
    print("\n".join(lines), flush=True)
    return {"seed": seed, **json.loads(lines[-1])}

"""Host-normalised end-to-end benchmark (see README.md in this directory).

    python3 benchmarks/e2e/run.py --workload replay_long          # one run
    python3 benchmarks/e2e/run.py --workload replay_long --trace 1
    python3 benchmarks/e2e/run.py --record       # all four, both modes,
                                                 # rewrite results/*.json
    python3 benchmarks/e2e/run.py --smoke        # all four, 5 rounds each
    python3 benchmarks/e2e/run.py --aa [--disturb]
    python3 benchmarks/e2e/run.py --pin          # rewrite expected.json

The last line of standard output of a single-workload run is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import os

# One thread per numeric library, decided before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The harness selects the backend itself; the caller's choice is ignored.
os.environ.pop("REPRO_BACKEND", None)

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no program to measure: {_ROOT / 'src' / 'repro'} "
             "is missing")
if not (_ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"benchmarks/e2e: {_ROOT / 'BENCHMARK.json'} is missing")
sys.path.insert(0, str(_ROOT / "src"))

import harness


def main(argv: list[str] | None = None) -> int:
    spec = harness.declared()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{harness.SMOKE_ROUNDS} rounds, 1 cold start, "
                             "checks on")
    parser.add_argument("--record", action="store_true",
                        help="rewrite results/BENCH_*.json and LAYERS_*.json")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload (per set under --aa)")
    parser.add_argument("--aa", action="store_true",
                        help="A/A self-test: two interleaved sets of runs")
    parser.add_argument("--disturb", action="store_true",
                        help="with --aa: run intermittent numpy hogs alongside")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from the default seed")
    parser.add_argument("--cold-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.cold_child:
        return harness.child_main(args.workload, args.seed)
    if args.pin:
        return harness.pin_expected()
    if args.aa:
        import aa
        return aa.main(args.seed, args.seconds, args.runs, args.disturb)
    if args.record:
        return harness.record(args.seed, args.seconds, args.runs)
    trace = bool(args.trace)
    if args.smoke:
        return max(harness.print_run(
            harness.run_workload(name, args.seed, args.seconds, trace,
                                 rounds=harness.SMOKE_ROUNDS, n_cold=1),
            trace) for name in ([args.workload] if args.workload else names))
    if args.workload:
        return harness.print_run(
            harness.run_workload(args.workload, args.seed, args.seconds, trace),
            trace)
    # Every workload, each in its own interpreter as the driver runs them
    # (peak RSS is per process).
    runs = [harness.run_in_child(name, args.seed, args.seconds, trace)
            for name in names]
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

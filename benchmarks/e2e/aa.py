"""A/A self-test: the same code measured as two interleaved sets of runs
must agree within the benchmark's own bounds, quiet and disturbed."""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

import harness
import measure

#: Three of these run beside the benchmark under ``--disturb``: 3 s of
#: numpy matrix products, 4 s asleep, staggered so the load keeps changing.
HOG = """
import sys, time
import numpy as np
a = np.random.default_rng(0).random((384, 384))
time.sleep(float(sys.argv[1]))
while True:
    end = time.perf_counter() + 3.0
    while time.perf_counter() < end:
        a @ a
    time.sleep(4.0)
"""


def compare(first: list[float], second: list[float]) -> dict[str, Any]:
    """Both sets' medians and quartiles and the relative gap between the
    medians (what ``results/AA_seed.json`` keeps)."""
    rows = {}
    for label, values in (("a", first), ("b", second)):
        q1, q2, q3 = measure.quartiles(values)
        rows[label] = {"median": q2, "q1": q1, "q3": q3, "values": values}
    return {**rows,
            "gap": abs(rows["b"]["median"] / rows["a"]["median"] - 1.0)}


def main(seed: int, seconds: float, runs: int, disturb: bool) -> int:
    import workloads as wl
    bounds = harness.bounds()
    hogs = [subprocess.Popen([sys.executable, "-c", HOG, str(2.0 * i)])
            for i in range(3)] if disturb else []
    try:
        sets: dict[str, tuple[list, list]] = {
            name: ([], []) for name in wl.WORKLOADS}
        for i in range(runs):
            for name in wl.WORKLOADS:
                for side in (0, 1):
                    sets[name][side].append(harness.run_in_child(
                        name, seed + 2 * i + side, seconds, trace=False))
    finally:
        for hog in hogs:
            hog.terminate()
        for hog in hogs:
            hog.wait()
    table: dict[str, Any] = {}
    ok = True
    print(f"{'workload':<20} {'metric':<12} {'median a':>12} {'median b':>12} "
          f"{'iqr a':>7} {'iqr b':>7} {'gap':>7} {'bound':>6}")
    for name, (first, second) in sets.items():
        table[name] = {}
        ok &= all(r["correct"] for r in first + second)
        for metric, bound in bounds.items():
            row = compare(*([r["metrics"][metric]["value"] for r in side]
                            for side in (first, second)))
            table[name][metric] = row
            ok &= row["gap"] < bound
            a, b = row["a"], row["b"]
            print(f"{name:<20} {metric:<12} {a['median']:>12.4f} "
                  f"{b['median']:>12.4f} "
                  f"{(a['q3'] - a['q1']) / a['median']:>7.2%} "
                  f"{(b['q3'] - b['q1']) / b['median']:>7.2%} "
                  f"{row['gap']:>7.2%} {bound:>6.0%}"
                  f"{'' if row['gap'] < bound else '  EXCEEDED'}")
    path = harness.RESULTS / "AA_seed.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc["disturbed" if disturb else "quiet"] = {
        **harness.provenance(), "runs_per_set": runs, "table": table}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("A/A:", "PASS" if ok else "FAIL")
    return 0 if ok else 1

"""Front-door census: which functions under ``src/repro`` does a run enter?

    python tests/front_door_census.py

Runs each step of ``INVOCATIONS`` in a fresh interpreter under a call
recorder and prints the outermost functions of ``src/repro`` that no step
entered, as ``module:qualname  lines``. Exits 1 on such a function that
``ALLOWED_NAMES`` (``tests/test_module_audit.py``) names neither itself
nor by its class, on an entry neither this census nor the static audit
needs, on a step that exits other than it states, and on a CLI flag no
step sets. Not collected by tier-1 (no ``test_`` prefix); CI runs it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Groups run side by side, each in a fresh directory its steps share in
#: order. A step is ``(exit code, argv split on spaces)``: ``repro ...``
#: runs ``python -m repro``, a path runs that script (``{root}`` is the
#: repository root), and ``@damage-cache FILE`` drops
#: ``meta.schedule.results`` from the first line of a cache store.
INVOCATIONS: dict[str, list[tuple[int, str]]] = {
    "tables": [(0, "repro tables")],
    "simulate": [
        (0, "repro simulate --steps 2 --grid 10 8 6 --ranks 2 1 1 "
            "--buckets 2 --seed 7 --report"),
        (0, "repro simulate --steps 2 --grid 10 8 6 --ranks 2 1 1 "
            "--buckets 2 --streaming"),
    ],
    "track": [(0, "repro track --steps 4 --threshold 1.6 --seed 11")],
    "render": [(0, "repro render --steps 2 --stride 2 --size 16 --seed 3 "
                   "--prefix r")],
    "replay": [
        (0, "repro replay --steps 4 --buckets 8 --analyses TOPO_HYBRID"),
        # The starved run: the pace rule exits 1.
        (1, "repro replay --steps 4 --buckets 1"),
        # CI's trace, blame and trace-diff artifacts.
        (0, "repro replay --out-dir repro_out --trace --jsonl "
            "repro_trace.jsonl --blame"),
        (0, "repro replay --out-dir repro_out --trace repro_trace_b.json "
            "--diff repro_out/repro_trace.jsonl"),
        (0, "repro replay --out-dir repro_out --functional --steps 2 "
            "--trace repro_trace_functional.json"),
        (0, "repro replay --steps 6 --buckets 4 --interval 2 --trace "
            "--diff repro_out/repro_trace.jsonl"),
        (0, "repro replay --from repro_out/repro_trace.jsonl --blame "
            "--out-dir from"),
        (0, "repro replay --from repro_out/repro_trace.json "
            "--diff repro_out/repro_trace_b.json --out-dir from"),
        (0, "repro replay --functional --steps 2 --jsonl f.jsonl "
            "--top-kernels 3"),
    ],
    "check": [(0, "repro check scenarios --out-dir c")],
    "perf": [
        (0, "repro perf record --out-dir p --steps 10 --buckets 8 --seed 0 "
            "--source census"),
        (0, "repro perf compare --out-dir p --baseline "
            "{root}/benchmarks/results/baseline --window 5 "
            "--tolerance sched.*=0.10"),
        # A perturbed cost model must trip the gate.
        (1, "repro perf compare --out-dir p --baseline "
            "{root}/benchmarks/results/baseline --perturb topo.subtree=1.5"),
        (0, "repro perf report --out-dir p --store p/perf --baseline "
            "{root}/benchmarks/results/baseline --html dash.html"),
    ],
    "campaign": [
        (0, "repro submit --jobs b.jsonl --tenant a --name j1 --steps 2 "
            "--buckets 3"),
        (0, "repro submit --jobs b.jsonl --tenant a --name j2 --steps 3 "
            "--buckets 3 --interval 1 --analyses TOPO_HYBRID STATS_HYBRID"),
        (0, "repro submit --jobs b.jsonl --tenant b --name j3 --steps 4 "
            "--buckets 4 --config paper_9440 --shards 2 --submit-at 30"),
        (0, "repro submit --jobs b.jsonl --tenant b --name j4 --steps 5 "
            "--buckets 4 --lease-timeout 5 --crash-times 20 --fault-seed 1 "
            "--stall-rate 0.1 --stall-seconds 1"),
        (0, "repro serve --jobs b.jsonl --out-dir s --workers 3 --quota a=1 "
            "--default-quota 2 --expect-quota-held --report report.json"),
        (0, "repro serve --jobs b.jsonl --out-dir s --min-cache-hit-rate 1.0"),
        (0, "repro jobs --out-dir s --state-dir s/service --tenant a "
            "--limit 1"),
        # A fresh state directory: the live stream, then the live view.
        (0, "repro serve --jobs b.jsonl --state-dir live_a --jsonl "
            "--out events.jsonl"),
        (0, "repro serve --jobs b.jsonl --state-dir live_b --follow "
            "--refresh 0"),
    ],
    # README's and CI's three-tenant live batch.
    "live": [
        (0, "repro submit --jobs live.jsonl --tenant alpha --name a1 "
            "--steps 4 --buckets 4"),
        (0, "repro submit --jobs live.jsonl --tenant beta --name b1 "
            "--steps 4 --buckets 4 --lease-timeout 5 --fault-seed 3 "
            "--stall-rate 0.5 --stall-seconds 40"),
        (0, "repro submit --jobs live.jsonl --tenant gamma --name g1 "
            "--steps 5 --buckets 4"),
        (0, "repro serve --jobs live.jsonl --workers 3 --out-dir serve "
            "--jsonl --expect-alerts beta --expect-clean alpha"),
        (0, "repro serve --jobs live.jsonl --workers 3 --out-dir serve "
            "--min-cache-hit-rate 1.0"),
    ],
    # Lost in-transit tasks: the job is done, its failed tasks counted.
    "lossy": [
        (0, "repro submit --jobs b.jsonl --tenant a --name lossy --steps 4 "
            "--buckets 4 --pull-failure-rate 0.5 --fault-seed 3"),
        (0, "repro serve --jobs b.jsonl --out-dir s"),
        (0, "repro serve --jobs b.jsonl --out-dir s"),
    ],
    # A damaged cache entry is dropped and replayed.
    "damaged-cache": [
        (0, "repro submit --jobs b.jsonl --tenant a --name j1 --steps 2 "
            "--buckets 3"),
        (0, "repro serve --jobs b.jsonl --out-dir s"),
        (0, "@damage-cache s/service/cache/runs.jsonl"),
        (0, "repro serve --jobs b.jsonl --out-dir s"),
        (0, "repro serve --jobs b.jsonl --out-dir s --min-cache-hit-rate 1.0"),
    ],
    **{f"example {p.stem}": [(0, f"examples/{p.name}")]
       for p in sorted((ROOT / "examples").glob("*.py"))},
    "paper registry": [(0, "repro check paper")],
    "e2e smoke": [(0, "benchmarks/e2e/run.py --smoke")],
    **{f"e2e {w}": [(0, f"benchmarks/e2e/run.py --workload {w} --seconds 3 "
                        "--trace 1")]
       for w in ("serve_sweep", "replay_long", "replay_observed",
                 "pipeline_functional")},
}

WORKERS = 2  # groups side by side, one small interpreter each


# -- the recorder -------------------------------------------------------------


@contextmanager
def record_calls(under: Path = PACKAGE):
    """Collect ``(co_filename, co_firstlineno)`` of every function entered
    under ``under`` while the block runs.

    ``sys.settrace``, not ``sys.setprofile``: a profiler that a run
    installs itself (``benchmarks/e2e/probes.profile_round`` enables
    cProfile) replaces a ``setprofile`` hook and blinds it for that
    stretch, but leaves a trace function alone. The trace function
    returns ``None``, so it sees call events only, never lines."""
    seen: set = set()
    prefix = str(under)

    def record(frame, event, arg):
        seen.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(record)
    out: set[tuple[str, int]] = set()
    try:
        yield out
    finally:
        sys.settrace(previous)
        out.update((c.co_filename, c.co_firstlineno) for c in seen
                   if c.co_filename.startswith(prefix))


class Function(NamedTuple):
    """One outermost function (a module-level def or a method; closures
    fold into it), ``first_line`` its first decorator's line."""

    key: str  # "module:qualname"
    path: str
    def_line: int
    first_line: int
    lines: int


def outermost_functions(path: Path, module: str) -> list[Function]:
    """Every def of ``path`` that sits in no other def (classes are
    walked into, functions are not)."""
    out: list[Function] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out.append(Function(f"{module}:{prefix}{child.name}",
                                    str(path), child.lineno, first,
                                    child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def unreached(functions: list[Function],
              seen: set[tuple[str, int]]) -> list[Function]:
    """Those of ``functions`` no recorded call entered. On 3.11+ a
    decorated function's ``co_firstlineno`` is its first decorator's
    line, on 3.10 its ``def`` line: either matches."""
    return [f for f in functions
            if (f.path, f.first_line) not in seen
            and (f.path, f.def_line) not in seen]


# -- one child ----------------------------------------------------------------


def _child(out: str, argv: list[str]) -> int:
    """Run one front door under the recorder; dump what it entered."""
    import runpy

    # ``sys.argv`` and ``sys.path[0]`` as ``python -m repro`` or
    # ``python SCRIPT`` would set them.
    if argv[0] == "repro":
        sys.argv = argv
        sys.path[0] = os.getcwd()
        run = partial(runpy.run_module, "repro", run_name="__main__",
                      alter_sys=True)
    else:
        script = str(ROOT / argv[0])
        sys.argv = [script, *argv[1:]]
        sys.path[0] = str(Path(script).parent)
        run = partial(runpy.run_path, script, run_name="__main__")
    code = 0
    with record_calls() as seen:
        try:
            run()
        except SystemExit as exc:
            if isinstance(exc.code, int) or exc.code is None:
                code = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
                code = 1
    Path(out).write_text(json.dumps(sorted(seen)), encoding="utf-8")
    return code


def _damage_cache(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[0])
    del entry["meta"]["schedule"]["results"]
    lines[0] = json.dumps(entry)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_group(name: str, steps: list[tuple[int, str]]
               ) -> tuple[set[tuple[str, int]], list[str]]:
    """Run one group's steps in order in a fresh directory; return what
    they entered and every unexpected exit code."""
    seen: set[tuple[str, int]] = set()
    problems = []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory(prefix="census-") as cwd:
        for i, (expected, step) in enumerate(steps):
            argv = step.format(root=ROOT).split()
            if argv[0] == "@damage-cache":
                _damage_cache(Path(cwd, argv[1]))
                continue
            out = Path(cwd, f".census-{i}.json")
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(out), *argv],
                cwd=cwd, env=env, capture_output=True, text=True,
                check=False)
            if proc.returncode != expected:
                problems.append(
                    f"{name}: `{' '.join(argv)}` exited {proc.returncode}, "
                    f"expected {expected}\n{proc.stderr.strip()[-2000:]}")
            if out.exists():
                seen.update(map(tuple, json.loads(out.read_text())))
    return seen, problems


# -- the verdict --------------------------------------------------------------


def unset_flags() -> list[str]:
    """``verb --flag`` of every CLI option no invocation passes."""
    import argparse

    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser

    given: dict[str, set[str]] = {}
    for steps in INVOCATIONS.values():
        for _, step in steps:
            verb, *argv = step.split()[1:] or [""]
            if step.startswith("repro "):
                given.setdefault(verb, set()).update(
                    a.split("=")[0] for a in argv if a.startswith("--"))
    (verbs,) = [a.choices for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    missing = [verb for verb in verbs if verb not in given]
    for verb, sub in verbs.items():
        flags = {a.option_strings[-1] for a in sub._actions
                 if a.option_strings} - {"--help"}
        missing += [f"{verb} {flag}"
                    for flag in sorted(flags - given.get(verb, set()))]
    return missing


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_module_audit import ALLOWED_NAMES, SOURCES, statically_unused

    problems = [f"no invocation sets `{flag}`" for flag in unset_flags()]
    seen: set[tuple[str, int]] = set()
    with ThreadPoolExecutor(WORKERS) as pool:
        for group_seen, group_problems in pool.map(
                lambda item: _run_group(*item), INVOCATIONS.items()):
            seen |= group_seen
            problems += group_problems

    functions = [f for module, path in sorted(SOURCES.items())
                 for f in outermost_functions(path, module)]
    missed = unreached(functions, seen)
    print(f"{len(missed)} of {len(functions)} outermost functions, "
          f"{sum(f.lines for f in missed)} lines, entered by no front door:")
    used_entries = set()
    for f in missed:
        module, _, qualname = f.key.partition(":")
        cls = f"{module}:{qualname.rpartition('.')[0]}"
        entry = next((k for k in (f.key, cls) if k in ALLOWED_NAMES), None)
        used_entries.add(entry)
        print(f"  {f.key}  {f.lines}"
              + ("" if entry else "   <- not allow-listed"))
        if entry is None:
            problems.append(f"unreached and not allow-listed: {f.key}")
    stale = sorted(set(ALLOWED_NAMES) - used_entries - statically_unused())
    problems += [f"allow-list entry no longer needed: {e}" for e in stale]

    for p in problems:
        print(f"FAIL {p}")
    print(f"census: {'FAIL' if problems else 'PASS'} "
          f"({sum(len(s) for s in INVOCATIONS.values())} steps)")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2], sys.argv[3:]))
    sys.exit(main())

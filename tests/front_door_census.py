"""Front-door census: which lines under ``src/repro`` does a run reach?

    python tests/front_door_census.py

Runs each step of ``INVOCATIONS`` in a fresh interpreter under a line
recorder. Prints the outermost functions of ``src/repro`` none of whose
lines ran, as ``module:qualname  lines``, then, per file, the body lines
that did not run inside functions that did, as ``file  count  lines``.
Exits 1 on such a function that ``ALLOWED_NAMES``
(``tests/test_module_audit.py``) names neither itself nor by its class,
on an entry neither this census nor the static audit needs, on a file
whose count is above its figure in ``tests/census_lines.json`` (or has
none), on a step that exits other than it states or says other than it
states, and on a CLI flag no step sets. A count below its figure is
printed as ``lower census_lines.json: file: old -> new``; lowering the
figure keeps the gain. Not collected by tier-1 (no ``test_`` prefix); CI
runs it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache, partial
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: file under ``src/repro`` -> how many of its function-body lines no
#: front door runs; the census fails when a count rises.
RATCHET = ROOT / "tests" / "census_lines.json"


def _ev(ph: str, name: str, ts: int, flow: int | None = None) -> str:
    """One Chrome trace event on pid/tid 1/1, as JSON."""
    return json.dumps({"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": 1,
                       **({} if flow is None else {"id": flow})})


#: ``(file, its one line, what --from FILE must say)``: damaged JSON-lines
#: exports, then Chrome documents each breaking one rule of
#: :func:`repro.obs.validate_chrome_trace`.
_BAD_TRACES = (
    ("kind.jsonl", '{"type": "span?"}',
     "kind.jsonl:1: record type 'span?' is not span"),
    ("field.jsonl", '{"type": "span"}',
     "field.jsonl:1: record is missing field 'name'"),
    ("list.jsonl", "[1]", "list.jsonl:1: not a trace record"),
    ("empty.jsonl", '{"type": "metrics"}',
     "empty.jsonl: no spans to blame or diff"),
    ("doc.json", '{"traceEvents": 1}',
     "doc.json: document has no 'traceEvents' list"),
    ("keys.json", '{"traceEvents": [{"ph": "B", "ts": 1}]}',
     "keys.json: event 0 missing keys"),
    ("open.json", '{"traceEvents": [' + _ev("E", "a", 1) + "]}",
     "open.json: event 0: E 'a' on pid/tid (1, 1) with no open B"),
    ("cross.json", '{"traceEvents": [' + _ev("B", "a", 1) + ", "
     + _ev("E", "b", 2) + "]}",
     "cross.json: event 1: E 'b' closes B 'a'"),
    ("unclosed.json", '{"traceEvents": [' + _ev("B", "a", 1) + "]}",
     "unclosed.json: pid/tid (1, 1) ends with unclosed spans ['a']"),
    ("noid.json", '{"traceEvents": [' + _ev("s", "f", 1) + "]}",
     "noid.json: event 0: flow event 'f' (s) has no 'id'"),
    ("twice.json", '{"traceEvents": [' + _ev("B", "a", 1) + ", "
     + _ev("s", "f", 1, 7) + ", " + _ev("s", "f", 1, 7) + ", "
     + _ev("E", "a", 2) + "]}",
     "twice.json: event 2: flow id 7 has a duplicate 's' event"),
    ("loose.json", '{"traceEvents": [' + _ev("s", "f", 1, 7) + "]}",
     "loose.json: event 0: flow event 'f' (s) at ts 1 binds to no "
     "slice"),
    ("nostart.json", '{"traceEvents": [' + _ev("B", "a", 1) + ", "
     + _ev("f", "f", 1, 7) + ", " + _ev("E", "a", 2) + "]}",
     "nostart.json: flow id 7 has no start (s) event"),
    ("nofinish.json", '{"traceEvents": [' + _ev("B", "a", 1) + ", "
     + _ev("s", "f", 1, 7) + ", " + _ev("E", "a", 2) + "]}",
     "nofinish.json: flow id 7 has no finish (f) event"),
    ("back.json", '{"traceEvents": [' + _ev("B", "a", 1) + ", "
     + _ev("f", "f", 1, 7) + ", " + _ev("s", "f", 2, 7) + ", "
     + _ev("E", "a", 2) + "]}",
     "back.json: flow id 7 finishes (ts 1) before it starts (ts 2)"),
)

#: A partial JSON-lines export: a flow that never arrived and flows with
#: no task id, and no kernel spans.
_PARTIAL_TRACE = (
    '{"type": "span", "name": "sim.step", "lane": "sim-timeline", '
    '"span_id": 1, "t_start": 0, "t_end": 1, '
    '"tags": {"stage": "simulation", "step": 0}}',
    '{"type": "span", "name": "task", "lane": "bucket-0", "span_id": 2, '
    '"t_start": 2, "t_end": 3, "tags": {"stage": "intransit"}}',
    '{"type": "flow", "flow_id": 1, "kind": "task", "t_begin": 1, '
    '"src_span_id": 1, "dst_span_id": 2, "tags": {"step": 0}, '
    '"hops": [{"t": 2, "kind": "run", "lane": "bucket-0", "span_id": 2}]}',
    '{"type": "flow", "flow_id": 2, "kind": "task", "t_begin": 1, '
    '"src_span_id": 1, "tags": {"step": 0}, "hops": []}',
)

#: Groups run side by side, each in a fresh directory its steps share in
#: order. A step is ``(exit code, argv split on spaces)``: ``repro ...``
#: runs ``python -m repro``, a path runs that script (``{root}`` is the
#: repository root), ``@append FILE TEXT`` adds the line TEXT to FILE,
#: and ``@damage-cache FILE`` drops ``meta.schedule.results`` from the
#: first line of a cache store. A hostile step, ``(exit code, argv,
#: message)``, must print ``message`` and no traceback
#: (``tests/test_hostile_inputs.py`` runs each in-process too).
INVOCATIONS: dict[str, list[tuple]] = {
    # Hostile flags: each is refused by its first check.
    "bad flags": [
        *[(1, f"repro submit --jobs b.jsonl --tenant a --name n {flags}", said)
          for flags, said in (
              ("--steps 0", "n_steps must be >= 1, got 0"),
              ("--shards 2 --buckets 1", "need at least one bucket per shard"),
              ("--lease-timeout 0", "lease_timeout must be > 0"),
              ("--analyses VIS_INSITU",
               "'VIS_INSITU' has no in-transit stage"),
              ("--analyses TOPO_HYBRID TOPO_HYBRID",
               "each analysis may be named once"),
              ("--crash-times 20", "crash_times require lease_timeout"),
              ("--pull-failure-rate 2", "pull_failure_rate must be in [0, 1]"),
              ("--stall-rate 2", "pull_stall_rate must be in [0, 1]"),
              ("--stall-seconds -1", "pull_stall_seconds must be >= 0"),
              ("--lease-timeout 5 --crash-times -1",
               "crash_times must be >= 0"),
              ("--submit-at -1", "submit_at must be >= 0"),
              ("--submit-at inf", "submit_at must be >= 0 and finite, got inf"),
              ("--lease-timeout nan",
               "lease_timeout must be a finite number, got nan"),
              ("--lease-timeout 5 --crash-times nan",
               "crash_times must be a finite number, got nan"),
              ("--stall-seconds nan",
               "pull_stall_seconds must be a finite number, got nan"))],
        *[(1, f"repro simulate --grid 10 8 6 --ranks 2 1 1 {flags}", said)
          for flags, said in (
              ("--grid 1 8 6", "shape must be 3 axes of >= 2 cells"),
              ("--ranks 20 1 1", "process grid (20, 1, 1) exceeds grid"),
              ("--ranks 0 1 1", "invalid process grid (0, 1, 1)"),
              ("--steps 0", "n_steps must be >= 1, got 0"),
              ("--buckets 0", "n_buckets must be >= 1, got 0"))],
        (1, "repro render --steps 0", "--steps: n must be >= 1, got 0"),
        (2, "repro track --threshold nan", "--threshold: must be finite"),
        (2, "repro serve --jobs b.jsonl --refresh inf",
         "--refresh: must be finite"),
        (2, "repro replay --top-kernels -1", "--top-kernels: must be >= 0"),
        (2, "repro serve --jobs b.jsonl --min-cache-hit-rate 2",
         "must be in [0.0, 1.0], got 2"),
        (1, "repro check nosuch --out-dir c",
         "unknown check selector(s) ['nosuch']"),
        (1, "repro perf compare --out-dir p --perturb sched.x",
         "--perturb expects KEY=VALUE, got 'sched.x'"),
        (1, "repro perf compare --out-dir p --perturb sched.x=y",
         "--perturb: value for 'sched.x' is not a number: 'y'"),
        (1, "repro perf record --out-dir p --perturb nosuch=2",
         "--perturb: cost model 'Jaguar-XK6' has no rate for operation "
         "'nosuch'"),
        (1, "repro perf record --out-dir p --perturb topo.subtree=-1",
         "--perturb: factor for 'topo.subtree' must be a finite number > 0, "
         "got -1.0"),
        (2, "repro perf compare --out-dir p --baseline none",
         "no baseline records in none"),
        (0, "repro perf report --out-dir p --baseline none"),
        (0, "repro jobs --out-dir none"),
    ],
    # Hostile traces for --from: each exits 1 with one line.
    "bad traces": [
        (1, "repro replay --from none.jsonl --blame",
         "cannot read trace none.jsonl"),
        (1, "repro replay --from t.jsonl --trace",
         "--from FILE blames (--blame) or diffs (--diff)"),
        (1, "repro replay --functional --steps 2",
         "--functional replays only to observe"),
        (0, "@append bad.jsonl"),
        (0, "@append bad.jsonl {"),
        (1, "repro replay --from bad.jsonl --blame", "bad.jsonl:2: not JSON"),
        *[(0, f"@append {name} {line}") for name, line, _ in _BAD_TRACES],
        *[(1, f"repro replay --from {name} --diff {name}", said)
          for name, _, said in _BAD_TRACES],
        # A partial export still blames and diffs.
        *[(0, f"@append part.jsonl {line}") for line in _PARTIAL_TRACE],
        (0, "repro replay --from part.jsonl --blame --top-kernels 2"),
        (0, "repro replay --from part.jsonl --diff part.jsonl"),
    ],
    # Hostile batch files: each exits 1 naming the file and line.
    "bad batches": [
        (1, "repro serve --jobs none.jsonl", "no such batch file: none.jsonl"),
        (1, "repro serve --jobs .", "no such batch file: ."),
        *[step for name, line, said in (
            ("json.jsonl", "{", "json.jsonl:1: not valid JSON"),
            ("list.jsonl", "[1]",
             "list.jsonl:1: a job must be a JSON object, got list"),
            ("field.jsonl", '{"tenant": "a", "name": "n", "bogus": 1}',
             "field.jsonl:1: unknown job fields: ['bogus']"),
            ("type.jsonl", '{"tenant": "a", "name": "n", "n_steps": "2"}',
             "type.jsonl:1: n_steps must be an int, got '2'"),
            ("none.jsonl", '{"tenant": "a", "name": "n", "analyses": []}',
             "none.jsonl:1: need at least one analysis"),
            ("tenant.jsonl", '{"tenant": "", "name": "n"}',
             "tenant.jsonl:1: tenant must be non-empty"),
            ("name.jsonl", '{"tenant": "a", "name": ""}',
             "name.jsonl:1: job name must be non-empty"),
            ("config.jsonl", '{"tenant": "a", "name": "n", "config": "p"}',
             "config.jsonl:1: unknown config 'p'"),
            ("q0.jsonl", '{"quota": {"tenant": ""}}',
             "q0.jsonl:1: tenant must be non-empty"),
            ("q1.jsonl", '{"quota": {"tenant": "a", "max_concurrent": 0}}',
             "q1.jsonl:1: max_concurrent must be >= 1, got 0"),
            ("q2.jsonl", '{"quota": {"tenant": "a", "staging_bytes": 0}}',
             "q2.jsonl:1: staging_bytes must be > 0, got 0"),
            ("q3.jsonl", '{"quota": {"tenant": "a", "max_cores": 0}}',
             "q3.jsonl:1: max_cores must be > 0, got 0"),
            ("q4.jsonl", '{"quota": {"tenant": "a", "cores": 1}}',
             "q4.jsonl:1: TenantQuota.__init__() got an unexpected keyword "
             "argument 'cores'"),
            ("q5.jsonl", '{"quota": {"tenant": "a", "max_concurrent": NaN}}',
             "q5.jsonl:1: max_concurrent must be finite, got nan"),
            ("at.jsonl", '{"tenant": "a", "name": "n", "submit_at": NaN}',
             "at.jsonl:1: submit_at must be >= 0 and finite, got nan"),
            ("stall.jsonl",
             '{"tenant": "a", "name": "n", "pull_stall_seconds": Infinity}',
             "stall.jsonl:1: pull_stall_seconds must be a finite number, "
             "got inf"),
            ("delay.jsonl",
             '{"tenant": "a", "name": "n", "bucket_restart_delay": NaN}',
             "delay.jsonl:1: bucket_restart_delay must be a finite number, "
             "got nan"),
            ("jobless.jsonl", '{"quota": {"tenant": "a"}}',
             "batch file jobless.jsonl holds no jobs"),
        ) for step in ((0, f"@append {name} {line}"),
                       (1, f"repro serve --jobs {name}", said))],
        (0, "repro submit --jobs b.jsonl --tenant a --name j1 --steps 2 "
            "--buckets 3"),
        (1, "repro serve --jobs b.jsonl --quota a",
         "--quota expects TENANT=N, got 'a'"),
        (1, "repro serve --jobs b.jsonl --quota a=x",
         "--quota 'a=x': invalid literal for int()"),
        # Cold: no cache hit, and no job held.
        (1, "repro serve --jobs b.jsonl --out-dir s --min-cache-hit-rate 1.0 "
            "--expect-quota-held",
         "EXPECTED QUOTA ENFORCEMENT: no job was ever held"),
    ],
    # Quota budgets from batch lines: a (staging bytes) and b (cores) fit
    # one job at a time, c takes the default of one; d and e never fit.
    "quota": [
        (0, "@append q.jsonl # budgets first, then a blank line"),
        (0, "@append q.jsonl"),
        (0, '@append q.jsonl {"quota": {"tenant": "a", '
            '"staging_bytes": 500000000}}'),
        (0, '@append q.jsonl {"quota": {"tenant": "b", "max_cores": 5000}}'),
        (0, '@append q.jsonl {"quota": {"tenant": "*", "max_concurrent": 1}}'),
        *[(0, f"repro submit --jobs q.jsonl --tenant {t} --name {t}{i} "
              "--steps 2 --buckets 3")
          for t in "abc" for i in (1, 2)],
        (0, "repro serve --jobs q.jsonl --out-dir s --workers 3 "
            "--expect-quota-held"),
        (0, '@append d.jsonl {"quota": {"tenant": "d", "staging_bytes": 1}}'),
        (0, '@append d.jsonl {"quota": {"tenant": "e", "max_cores": 1}}'),
        (0, "repro submit --jobs d.jsonl --tenant d --name d1 --steps 2"),
        (0, "repro submit --jobs d.jsonl --tenant e --name e1 --steps 2"),
        (1, "repro serve --jobs d.jsonl --out-dir s --jsonl",
         "FAILED d/d1#1: job needs 1154406400 staging bytes, over the "
         "tenant budget of 1"),
    ],
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
            "{root}/benchmarks/results/baseline"),
        # A perturbed cost model must trip the gate.
        (1, "repro perf compare --out-dir p --baseline "
            "{root}/benchmarks/results/baseline --perturb topo.subtree=1.5"),
        # A cheaper subtree op improves some metrics and trips others.
        (1, "repro perf compare --out-dir p --baseline "
            "{root}/benchmarks/results/baseline --perturb topo.subtree=0.5"),
        # A slowed second record for the dashboard's deltas and failed
        # gate, and a torn line.
        (0, "repro perf record --out-dir p --perturb topo.subtree=1.5"),
        (0, "@append p/perf/runs.jsonl {"),
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
        (0, "@append s/service/jobs/runs.jsonl {"),
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
    # A tenant that pages, then recovers: its burn-rate alert clears.
    "recovery": [
        (0, "repro submit --jobs r.jsonl --tenant beta --name b1 --steps 4 "
            "--buckets 4 --lease-timeout 5 --fault-seed 3 --stall-rate 0.5 "
            "--stall-seconds 40"),
        (0, "repro submit --jobs r.jsonl --tenant beta --name b2 --steps 4 "
            "--buckets 4 --submit-at 8000"),
        (0, "repro serve --jobs r.jsonl --out-dir s --jsonl"),
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
def record_lines(under: Path = PACKAGE):
    """Collect ``(co_filename, line)`` of every line run by a function
    under ``under`` while the block runs (module and class bodies are
    left out: importing runs them, whoever imports).

    ``sys.settrace``, not ``sys.setprofile``: a profiler that a run
    installs itself (``benchmarks/e2e/probes.profile_round`` enables
    cProfile) replaces a ``setprofile`` hook and blinds it for that
    stretch, but leaves a trace function alone. The trace function
    returns itself for the frames it watches, so it sees their lines; a
    code object every line of which has run is not watched again."""
    prefix = str(under)
    ran: dict[CodeType, set[int]] = {}
    #: id(code) -> its line tracer, or None once it needs none; ``ran``
    #: keeps each watched code alive, ``skipped`` every other, so no id
    #: is reused while the block runs.
    tracers: dict[int, object] = {}
    skipped: list[CodeType] = []

    def tracer_for(code: CodeType):
        lines = ran[code] = set()
        add, need = lines.add, _lines(code)

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            elif (event == "return" and len(lines) >= len(need)
                  and lines >= need):
                tracers[id(code)] = None
            return line
        return line

    def call(frame, event, arg):
        code = frame.f_code
        tracer = tracers.get(id(code), call)
        if tracer is call:
            if (code.co_flags & CO_NEWLOCALS
                    and code.co_filename.startswith(prefix)):
                tracer = tracer_for(code)
            else:
                skipped.append(code)
                tracer = None
            tracers[id(code)] = tracer
        return tracer

    previous = sys.gettrace()
    sys.settrace(call)
    out: set[tuple[str, int]] = set()
    try:
        yield out
    finally:
        sys.settrace(previous)
        out.update((c.co_filename, n) for c, lines in ran.items()
                   for n in lines)


@lru_cache(maxsize=None)
def _lines(code: CodeType) -> frozenset[int]:
    """The lines of one code object a run can report: every line of its
    line table but the ``def`` (or first decorator) line, which only the
    prologue carries, unless that is the code's only line."""
    lines = {n for _, _, n in code.co_lines() if n is not None}
    if len(lines) > 1:
        lines.discard(code.co_firstlineno)
    return frozenset(lines)


def body_lines(path: Path) -> set[int]:
    """The lines of ``path`` a function (closures, lambdas and
    comprehensions included) can run."""
    out: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        if code.co_flags & CO_NEWLOCALS:
            out |= _lines(code)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return out


class Function(NamedTuple):
    """One outermost function (a module-level def or a method; closures
    fold into it), ``first_line`` its first decorator's line."""

    key: str  # "module:qualname"
    path: str
    first_line: int
    last_line: int

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


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
                                    str(path), first, child.end_lineno))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _ran(function: Function, seen: set[tuple[str, int]]) -> bool:
    return any((function.path, n) in seen
               for n in range(function.first_line, function.last_line + 1))


def unreached(functions: list[Function],
              seen: set[tuple[str, int]]) -> list[Function]:
    """Those of ``functions`` none of whose lines ran."""
    return [f for f in functions if not _ran(f, seen)]


def unreached_lines(functions: list[Function],
                    seen: set[tuple[str, int]]) -> dict[str, list[int]]:
    """``{path: lines}`` of the body lines that did not run inside the
    functions of ``functions`` that did run (a function no line of which
    ran is :func:`unreached`'s, not counted here)."""
    body = {path: body_lines(Path(path))
            for path in {f.path for f in functions}}
    out: dict[str, list[int]] = {}
    for f in functions:
        if _ran(f, seen):
            out.setdefault(f.path, []).extend(
                n for n in range(f.first_line, f.last_line + 1)
                if n in body[f.path] and (f.path, n) not in seen)
    return {path: sorted(lines) for path, lines in out.items()}


def ratchet(counts: dict[str, int], allowed: dict[str, int]
            ) -> tuple[list[str], list[str]]:
    """``(problems, lowered)`` of per-file unreached-line ``counts``
    against the committed ``allowed`` figures: a count above its figure,
    or a file with no figure, is a problem; a count below it is a figure
    to lower."""
    problems = [f"{name}: {n} unreached lines, {RATCHET.name} allows "
                f"{allowed[name]}" if name in allowed else
                f"{name}: {n} unreached lines, not in {RATCHET.name}"
                for name, n in sorted(counts.items())
                if n > allowed.get(name, 0)]
    lowered = [f"{name}: {allowed[name]} -> {counts.get(name, 0)}"
               for name in sorted(allowed)
               if counts.get(name, 0) < allowed[name]]
    return problems, lowered


# -- one child ----------------------------------------------------------------


def _child(out: str, argv: list[str]) -> int:
    """Run one front door under the recorder; dump the lines it ran."""
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
    with record_lines() as seen:
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


def _prepare(cwd: Path, step: str) -> None:
    """Run one ``@`` step of :data:`INVOCATIONS` in ``cwd``."""
    verb, name, *text = step.split(" ", 2)
    path = cwd / name
    if verb == "@append":
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(text) + "\n")
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[0])
    del entry["meta"]["schedule"]["results"]
    lines[0] = json.dumps(entry)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_group(name: str, steps: list[tuple]
               ) -> tuple[set[tuple[str, int]], list[str]]:
    """Run one group's steps in order in a fresh directory; return the
    lines they ran and every step that exits or speaks other than it
    states."""
    seen: set[tuple[str, int]] = set()
    problems = []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory(prefix="census-") as cwd:
        for i, (expected, step, *said) in enumerate(steps):
            if step.startswith("@"):
                _prepare(Path(cwd), step)
                continue
            argv = step.format(root=ROOT).split()
            out = Path(cwd, f".census-{i}.json")
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(out), *argv],
                cwd=cwd, env=env, capture_output=True, text=True,
                check=False)
            if (proc.returncode != expected or "Traceback" in proc.stderr
                    or not all(m in proc.stdout + proc.stderr for m in said)):
                problems.append(
                    f"{name}: `{' '.join(argv)}` exited {proc.returncode}, "
                    f"expected {expected}"
                    + "".join(f" saying {m!r}" for m in said)
                    + f"\n{proc.stderr.strip()[-2000:]}")
            if out.exists():
                seen.update(map(tuple, json.loads(out.read_text())))
    return seen, problems


# -- the verdict --------------------------------------------------------------


def _spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5,9``."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ",".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


def unset_flags() -> list[str]:
    """``verb --flag`` of every CLI option no invocation passes."""
    import argparse

    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser

    given: dict[str, set[str]] = {}
    for steps in INVOCATIONS.values():
        for _, step, *_ in steps:
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

    start = time.monotonic()
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

    lines = {str(Path(path).relative_to(PACKAGE)): found for path, found
             in unreached_lines(functions, seen).items() if found}
    counts = {name: len(found) for name, found in lines.items()}
    print(f"{sum(counts.values())} of "
          f"{sum(len(body_lines(p)) for p in SOURCES.values())} "
          "function-body lines run by no front door in functions that ran:")
    for name, found in sorted(lines.items()):
        print(f"  {name}  {len(found)}  {_spans(found)}")
    rises, lowered = ratchet(counts, json.loads(RATCHET.read_text()))
    problems += rises
    for note in lowered:
        print(f"lower {RATCHET.name}: {note}")

    for p in problems:
        print(f"FAIL {p}")
    print(f"census: {'FAIL' if problems else 'PASS'} "
          f"({sum(len(s) for s in INVOCATIONS.values())} steps, "
          f"{time.monotonic() - start:.0f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2], sys.argv[3:]))
    sys.exit(main())

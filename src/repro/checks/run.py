"""``repro check``: the complete registry, and one selector, one printer
and one writer over it.

Importing this module files every entry, the paper rows and then the
scenarios, so :data:`REGISTRY` read from here (or from
:mod:`repro.checks`) holds all of them.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from repro.checks import paper, scenarios  # noqa: F401 — files the entries
from repro.checks.registry import PAPER, REGISTRY, Entry, Verdict


def _matches(entry: Entry, selector: str) -> bool:
    return (selector in (entry.group, entry.section, entry.id)
            or entry.id.startswith(selector + "."))


def select(selectors: Sequence[str]) -> list[Entry]:
    """The entries any of ``selectors`` names, in registry order: a group
    (``paper``, ``scenarios``), a section (``"Table II"``), an id or a
    dotted id prefix (``table2`` selects every ``table2.*``). No selector
    selects every entry; one that matches nothing raises ValueError
    naming the choices."""
    unknown = [s for s in selectors
               if not any(_matches(e, s) for e in REGISTRY.values())]
    if unknown:
        groups = list(dict.fromkeys(e.group for e in REGISTRY.values()))
        sections = list(dict.fromkeys(e.section for e in REGISTRY.values()))
        raise ValueError(f"unknown check selector(s) {unknown}; choose a "
                         f"group {groups}, a section {sections}, or an id "
                         f"or dotted id prefix")
    return [e for e in REGISTRY.values()
            if not selectors or any(_matches(e, s) for s in selectors)]


def _jsonable(value):
    """``json.dumps`` fallback: a set (``fig4``'s collective ops) as a
    sorted list."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot write {type(value).__name__} to JSON")


def _record(entry: Entry, verdict: Verdict) -> dict:
    """The entry's fields and its verdict's, less the id (the key), the
    ``produce`` callable, the printed report and the event lines (written
    beside)."""
    record = {**vars(entry), **vars(verdict)}
    for key in ("id", "produce", "report", "events"):
        del record[key]
    return record


def run_checks(entries: list[Entry], out: Path) -> bool:
    """Produce each entry's verdict and print the paper report, then each
    scenario's report and ``check ID: PASS|FAIL`` line. Write ``out``
    (every verdict with each scenario's record) and each scenario's
    event lines beside it as ``repro_<id>.jsonl``. True iff every entry
    holds and every selected model row moves under some constant."""
    rows = [e for e in entries if e.group == PAPER]
    verdicts = {e.id: e.produce() for e in rows}
    doc: dict = {}
    moves = True
    if rows:
        text, doc, moves = paper.report(rows, verdicts)
        print(text)
    for e in entries:
        if e.group == PAPER:
            continue
        if verdicts:
            print()
        verdict = verdicts[e.id] = e.produce()
        print(verdict.report)
        print(f"check {e.id}: {'PASS' if verdict.passed else 'FAIL'}")

    held = sum(v.passed for v in verdicts.values())
    passed = moves and held == len(entries)
    doc.update(passed=passed, entries={
        e.id: _record(e, verdicts[e.id]) for e in entries})
    out.write_text(json.dumps(doc, indent=2, sort_keys=True,
                              default=_jsonable), encoding="utf-8")
    print(f"\nwrote {out}")
    for e in entries:
        events = verdicts[e.id].events
        if events:
            path = out.with_name(f"repro_{e.id}.jsonl")
            path.write_text("\n".join(events) + "\n", encoding="utf-8")
            print(f"wrote {path} ({len(events)} capacity events)")
    print(f"check: {'PASS' if passed else 'FAIL'} ({held}/{len(entries)} "
          f"entries hold)")
    return passed

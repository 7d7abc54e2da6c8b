"""The check registry: every declared expectation, in one entry shape.

An :class:`Entry` is an id, a section, the claim it checks and a
``produce`` that returns a :class:`Verdict`: what was expected, what was
measured, the tolerance and whether the claim holds. The paper rows
(:mod:`repro.checks.paper`) and the scenarios
(:mod:`repro.checks.scenarios`) file their entries through
:func:`register`; :mod:`repro.checks.run` selects, prints and writes
them (``python -m repro check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Entry kinds. A *fitted* row is the single published number a
#: calibration constant was fitted from; a *model* row is a genuine model
#: output; a *first-principles* row follows from the geometry alone; a
#: *shape* row is a claim checked by a predicate; a *scenario* runs a
#: seeded campaign against its expectation.
FITTED, MODEL, FIRST_PRINCIPLES, SHAPE, SCENARIO = (
    "fitted", "model", "first-principles", "shape", "scenario")

#: Entry groups, each a selector for all of its entries.
PAPER, SCENARIOS = "paper", "scenarios"


@dataclass(frozen=True)
class Verdict:
    """What one entry expected, what it measured, and whether that holds."""

    #: The expected value (a paper row's published number); None where a
    #: predicate over ``measured`` states the claim.
    expected: Any
    measured: Any
    #: Relative tolerance of a numeric row.
    tolerance: float | None
    passed: bool
    #: The asserted value where it knowingly differs from ``expected``
    #: (a Known deviation of EXPERIMENTS.md).
    target: float | None = None
    #: A scenario's printed report, its JSON record and its
    #: ``kind=capacity`` event lines.
    report: str = ""
    payload: Any = None
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class Entry:
    """One EXPERIMENTS.md row, shape claim or scenario."""

    id: str
    section: str
    #: :data:`PAPER` or :data:`SCENARIOS`.
    group: str
    claim: str
    kind: str
    produce: Callable[..., Verdict]
    #: The number declared before anything runs (a paper row's published
    #: value); None where a predicate states the claim.
    expected: float | None = None
    #: The one constant a fitted row was fitted from.
    fitted_from: str | None = None


REGISTRY: dict[str, Entry] = {}


def register(id: str, section: str, group: str, kind: str,
             claim: str | None = None, expected: float | None = None,
             fitted_from: str | None = None):
    """Decorator: file the decorated ``produce`` as entry ``id``; its
    docstring is the claim unless ``claim`` is given (whitespace runs
    collapse to one space)."""
    def deco(produce):
        if id in REGISTRY:
            raise ValueError(f"duplicate registry id {id!r}")
        REGISTRY[id] = Entry(id, section, group, " ".join(
            (claim or produce.__doc__ or "").split()), kind, produce,
            expected, fitted_from)
        return produce
    return deco

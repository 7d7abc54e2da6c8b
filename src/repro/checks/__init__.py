"""Declared expectations, each checked against what the model measures.

One registry (:data:`REGISTRY`) holds every entry in one shape
(:class:`~repro.checks.registry.Entry`): an id, a section, the claim and
a ``produce`` that returns a :class:`~repro.checks.registry.Verdict`.
:mod:`repro.checks.paper` files one entry per EXPERIMENTS.md row or
shape claim, with the calibration machinery its sensitivity check scales;
:mod:`repro.checks.scenarios` files the seeded fault, control and
capacity campaigns. ``python -m repro check [SELECTOR ...]`` selects,
prints and writes them (:mod:`repro.checks.run`).
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "REGISTRY": "run",
    "select": "run",
    "run_checks": "run",
    "Entry": "registry",
    "Verdict": "registry",
    "register": "registry",
})

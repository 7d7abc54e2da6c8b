"""Calibrated per-operation cost models.

The functional layer executes real algorithms on laptop-scale data; this
package converts an operation's name and element count into seconds on a
named machine, so the DES can replay the paper's full-scale runs. See
DESIGN.md §4 and :mod:`repro.costmodel.jaguar` for the calibration
provenance.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "CostModel": "models",
    "jaguar_cost_model": "jaguar",
    "JAGUAR_RATES": "jaguar",
})

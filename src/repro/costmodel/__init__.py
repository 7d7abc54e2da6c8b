"""Calibrated per-operation cost models.

The functional layer executes real algorithms on laptop-scale data; this
package converts an operation's name and element count into seconds on a
named machine, so the DES can replay the paper's full-scale runs. See
DESIGN.md §4 and :mod:`repro.costmodel.jaguar` for the calibration
provenance.
"""

from repro.costmodel.models import CostModel
from repro.costmodel.jaguar import jaguar_cost_model, JAGUAR_RATES

__all__ = [
    "CostModel",
    "jaguar_cost_model",
    "JAGUAR_RATES",
]

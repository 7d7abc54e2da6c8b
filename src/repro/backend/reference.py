"""The reference backend, as a backend table.

The reference implementations are the decorated ``@kernel`` bodies and
live at their original sites (``vmpi/comm.py``, ``analysis/topology/*.py``,
``analysis/statistics/*.py``); dispatch
falls through to them whenever no override exists, so this table is
intentionally empty. It exists so tooling can treat ``reference``
uniformly with every other backend and so :func:`reference_kernels`
can enumerate the canonical implementations for the equivalence suite.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.backend.registry import _REFERENCE

#: No overrides: every kernel dispatches to its reference body.
KERNELS: dict[str, Callable[..., Any]] = {}


def reference_kernels() -> dict[str, Callable[..., Any]]:
    """Kernel name -> reference implementation (the validation oracles)."""
    return dict(_REFERENCE)

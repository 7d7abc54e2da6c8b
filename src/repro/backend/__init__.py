"""``repro.backend`` — swappable kernel backends for the hot paths.

The three hot paths identified by ``repro replay --blame`` makespan share (vmpi
collectives, merge-tree union-find/glue, and the statistics engine's
learn/merge kernels) dispatch through this package. Two backends ship:

* ``reference`` — the original pure-python implementations, unchanged,
  living at their original sites as the bodies of ``@kernel`` functions;
* ``numpy`` — vectorized kernels (stacked collective folds, array
  union-find sweeps, single-pass vectorized moments) validated
  *bit-identically* against the reference by ``tests/test_backends.py``.

Select a backend with the ``REPRO_BACKEND`` environment variable, the
``python -m repro --backend`` CLI flag, or programmatically::

    from repro.backend import use_backend
    with use_backend("numpy"):
        tree, arc = compute_merge_tree(field)

See DESIGN.md §5 for the dispatch rules and the equivalence contract.
"""

from __future__ import annotations

from repro.backend.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    kernel,
    kernel_impl,
    kernel_names,
    known_backends,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "kernel",
    "kernel_impl",
    "kernel_names",
    "known_backends",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]


def _load_numpy_backend():
    """Lazy loader: importing the module is the availability probe."""
    from repro.backend import numpy_backend

    return numpy_backend.KERNELS


register_backend("numpy", _load_numpy_backend)

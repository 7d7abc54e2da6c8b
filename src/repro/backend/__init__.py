"""``repro.backend`` — the kernel seam of the analyses' hot paths.

The merge-tree sweep and glue and the statistics learn/merge kernels —
the hot paths that dominate ``repro replay --blame``'s makespan share —
are declared with :func:`kernel`. Each has two bodies at its declaring
site: the vectorized body, which is the code every call runs, and a
pure-python *reference* body beside it, which is the kernel's oracle and
the exact fallback the vectorized body takes for inputs it does not
handle itself (ragged blocks, zero-count accumulators, the paths that
name the first offending item). The two are bit-identical on every
output the analyses consume (DESIGN.md §5, ``tests/test_backends.py``).

One two-valued switch reaches the oracle::

    from repro.backend import use_backend
    with use_backend("reference"):
        tree, arc = compute_merge_tree(field)

``"numpy"``, the default, runs the vectorized bodies; ``"reference"``
runs every kernel's reference body.

When tracing is enabled, each kernel call is recorded as a
``kernel.<name>`` span tagged ``kernel=<name>`` and ``backend=<active>``,
which is what lets ``repro replay --blame --top-kernels`` rank kernels by
makespan share.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.obs.tracer import get_tracer

__all__ = [
    "get_backend",
    "kernel",
    "kernel_impl",
    "kernel_names",
    "set_backend",
    "use_backend",
]

#: Kernel name -> the module whose ``@kernel`` declares it. Packages
#: export lazily, so which declaring modules a process has imported depends
#: on what it ran; this table makes the kernel set independent of that.
KERNEL_MODULES = {
    "statistics.autocorr_cross_sums":
        "repro.analysis.statistics.autocorrelation",
    "statistics.autocorr_merge": "repro.analysis.statistics.autocorrelation",
    "statistics.learn_blocks": "repro.analysis.statistics.moments",
    "statistics.merge_packed_moments": "repro.analysis.statistics.moments",
    "topology.glue_batch": "repro.analysis.topology.distributed",
    "topology.graph_merge_tree": "repro.analysis.topology.stream_merge",
    "topology.merge_tree": "repro.analysis.topology.merge_tree",
    "topology.merge_trees": "repro.analysis.topology.merge_tree",
}
#: Kernel name -> (vectorized body, reference body), filled as the
#: declaring modules are imported.
_BODIES: dict[str, tuple[Callable[..., Any], Callable[..., Any]]] = {}
#: ``"reference"`` while the oracle switch is on (set_backend / use_backend).
_override: str | None = None


def _checked(name: str | None) -> str | None:
    if name not in (None, "numpy", "reference"):
        raise ValueError(f"unknown backend {name!r}: the choices are "
                         "'numpy' and 'reference'")
    return name


def get_backend() -> str:
    """The active body: ``"numpy"`` (the default) or ``"reference"``."""
    return _override or "numpy"


def set_backend(name: str | None) -> str | None:
    """Run ``"numpy"`` or ``"reference"`` bodies from now on (``None``:
    the default). Returns the previous setting so callers can restore it.
    """
    global _override
    previous = _override
    _override = _checked(name)
    return previous


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Context manager: run a block under one of the two bodies."""
    previous = set_backend(name)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


def kernel_names() -> list[str]:
    """Every kernel declared through :func:`kernel`, sorted; the same
    set whichever declaring modules the process has imported."""
    return sorted(KERNEL_MODULES)


def kernel(name: str, reference: Callable[..., Any]
           ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare a hot-path kernel: the decorated body is the vectorized
    code, ``reference`` its pure-python oracle. The returned wrapper runs
    the body the switch selects and exposes the oracle as ``.reference``.
    """
    if name in _BODIES:
        raise ValueError(f"kernel {name!r} already declared")

    def decorate(body: Callable[..., Any]) -> Callable[..., Any]:
        if KERNEL_MODULES.get(name) != body.__module__:
            raise ValueError(f"kernel {name!r} declared in {body.__module__}, "
                             f"but KERNEL_MODULES names "
                             f"{KERNEL_MODULES.get(name)}")
        _BODIES[name] = (body, reference)

        @functools.wraps(body)
        def dispatch(*args: Any, **kwargs: Any) -> Any:
            fn = reference if _override == "reference" else body
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span(f"kernel.{name}", lane="kernel",
                                 kernel=name, backend=get_backend()):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)

        dispatch.kernel_name = name
        dispatch.reference = reference
        return dispatch

    return decorate


def kernel_impl(name: str, backend: str | None = None) -> Callable[..., Any]:
    """The raw body ``backend`` (default: the active one) runs for kernel
    ``name``, without the span wrapper — for tests and benchmarks that
    compare the two. Imports the declaring module on first use."""
    if name not in KERNEL_MODULES:
        raise KeyError(f"unknown kernel {name!r}")
    if name not in _BODIES:
        importlib.import_module(KERNEL_MODULES[name])
    body, reference = _BODIES[name]
    return reference if (_checked(backend) or get_backend()) == "reference" \
        else body

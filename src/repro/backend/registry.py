"""The kernel registry and backend seam.

Hot-path functions are declared with the :func:`kernel` decorator: the
decorated body is the **reference** implementation (pure python / plain
numpy, the code every other backend is validated against), and the
decorator returns a dispatching wrapper that consults the *active
backend* on every call.

Every kernel is listed, with the module that declares it, in the static
:data:`KERNEL_MODULES` table; a reference body is imported on demand.

A backend is a named mapping ``{kernel name -> implementation}``.
Backends register a lazy *loader* so that optional dependencies are only
imported when the backend is first used; a backend whose loader raises
``ImportError`` is simply unavailable and resolution falls back to
``reference`` with a single warning (never an import-time failure).

Selection precedence, checked per call (cheap — one module-level read
plus an environment lookup):

1. an explicit :func:`set_backend` / :func:`use_backend` override;
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``reference``.

Every override implementation is required to be *bit-identical* to its
reference kernel on the outputs the analyses consume (merge-tree arcs,
statistics moments, collective results) — enforced by
``tests/test_backends.py``.

When tracing is enabled, each dispatched kernel call is recorded as a
``kernel.<name>`` span tagged ``kernel=<name>`` and ``backend=<active>``,
which is what lets ``repro blame --top-kernels`` rank kernels by
makespan share.
"""

from __future__ import annotations

import functools
import importlib
import os
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.obs.tracer import get_tracer

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "kernel",
    "kernel_names",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "reference"
ENV_VAR = "REPRO_BACKEND"

#: Kernel name -> the module whose ``@kernel`` declares it. Packages
#: export lazily, so which declaring modules a process has imported depends
#: on what it ran; this table makes the kernel set independent of that.
KERNEL_MODULES = {
    "statistics.autocorr_cross_sums":
        "repro.analysis.statistics.autocorrelation",
    "statistics.autocorr_merge": "repro.analysis.statistics.autocorrelation",
    "statistics.learn_blocks": "repro.analysis.statistics.moments",
    "statistics.merge_moments": "repro.analysis.statistics.moments",
    "statistics.merge_packed_moments": "repro.analysis.statistics.moments",
    "topology.glue_batch": "repro.analysis.topology.distributed",
    "topology.graph_merge_tree": "repro.analysis.topology.stream_merge",
    "topology.merge_tree": "repro.analysis.topology.merge_tree",
    "topology.merge_trees": "repro.analysis.topology.merge_tree",
    "vmpi.pairwise_reduce": "repro.vmpi.comm",
}
#: Kernel name -> reference implementation (the decorated bodies), filled
#: as the declaring modules are imported.
_REFERENCE: dict[str, Callable[..., Any]] = {}
#: Backend name -> lazy loader returning {kernel name -> impl}.
_LOADERS: dict[str, Callable[[], dict[str, Callable[..., Any]]]] = {}
#: Backend name -> loaded kernel table (``None`` = loader failed).
_LOADED: dict[str, dict[str, Callable[..., Any]] | None] = {"reference": {}}
#: Explicit in-process override (set_backend / use_backend).
_override: str | None = None
#: Backends we have already warned about (one warning per process).
_warned: set[str] = set()


def register_backend(name: str,
                     loader: Callable[[], dict[str, Callable[..., Any]]]
                     ) -> None:
    """Register a backend's lazy kernel-table loader.

    The loader runs at most once, on first use; an ``ImportError`` marks
    the backend unavailable (resolution then falls back to reference).
    """
    if name == DEFAULT_BACKEND:
        raise ValueError("the reference backend cannot be replaced")
    _LOADERS[name] = loader
    _LOADED.pop(name, None)


def _load(name: str) -> dict[str, Callable[..., Any]] | None:
    """Kernel table for ``name`` (``None`` if unavailable)."""
    if name not in _LOADED:
        loader = _LOADERS.get(name)
        if loader is None:
            _LOADED[name] = None
        else:
            try:
                _LOADED[name] = dict(loader())
            except ImportError as exc:
                _LOADED[name] = None
                _warn_once(name, f"backend {name!r} is unavailable "
                                 f"({exc}); falling back to "
                                 f"{DEFAULT_BACKEND!r}")
    return _LOADED[name]


def _warn_once(name: str, message: str) -> None:
    if name not in _warned:
        _warned.add(name)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def known_backends() -> list[str]:
    """Every registered backend name, available or not."""
    return sorted({DEFAULT_BACKEND, *_LOADERS, *(k for k in _LOADED)})


def available_backends() -> list[str]:
    """Backend names whose kernel tables load successfully."""
    return [name for name in known_backends() if _load(name) is not None]


def resolve_backend(requested: str | None = None) -> str:
    """Resolve a backend request to a *usable* backend name.

    ``None`` consults the override, then ``REPRO_BACKEND``, then the
    default. An unknown or unavailable backend warns once and resolves
    to ``reference``.
    """
    name = requested or _override or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if name == DEFAULT_BACKEND:
        return name
    if name not in _LOADERS:
        _warn_once(name, f"unknown backend {name!r} (known: "
                         f"{', '.join(known_backends())}); falling back "
                         f"to {DEFAULT_BACKEND!r}")
        return DEFAULT_BACKEND
    if _load(name) is None:
        return DEFAULT_BACKEND
    return name


def get_backend() -> str:
    """The active backend name (after availability fallback)."""
    return resolve_backend()


def set_backend(name: str | None) -> str | None:
    """Set (or with ``None`` clear) the in-process backend override.

    Returns the previous override so callers can restore it.
    """
    global _override
    previous = _override
    if name is not None:
        resolve_backend(name)  # surface unknown/unavailable warnings now
    _override = name
    return previous


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Context manager: run a block under a specific backend."""
    previous = set_backend(name)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


def kernel_names() -> list[str]:
    """Every kernel declared through :func:`kernel`, sorted; the same
    set whichever declaring modules the process has imported."""
    return sorted(KERNEL_MODULES)


def _reference(name: str) -> Callable[..., Any]:
    """The reference body of kernel ``name``, importing its declaring
    module on first use."""
    if name not in _REFERENCE:
        importlib.import_module(KERNEL_MODULES[name])
    return _REFERENCE[name]


def kernel(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare a hot-path kernel; the decorated body is the reference.

    The wrapper dispatches each call to the active backend's override
    (falling back to the reference body when the backend does not
    provide this kernel).
    """
    if name in _REFERENCE:
        raise ValueError(f"kernel {name!r} already declared")

    def decorate(ref: Callable[..., Any]) -> Callable[..., Any]:
        if KERNEL_MODULES.get(name) != ref.__module__:
            raise ValueError(f"kernel {name!r} declared in {ref.__module__}, "
                             f"but KERNEL_MODULES names "
                             f"{KERNEL_MODULES.get(name)}")
        _REFERENCE[name] = ref

        @functools.wraps(ref)
        def dispatch(*args: Any, **kwargs: Any) -> Any:
            backend = resolve_backend()
            if backend == DEFAULT_BACKEND:
                fn = ref
            else:
                table = _load(backend)
                fn = table.get(name, ref) if table else ref
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span(f"kernel.{name}", lane="kernel",
                                 kernel=name, backend=backend):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)

        dispatch.kernel_name = name
        dispatch.reference = ref
        return dispatch

    return decorate


def kernel_impl(name: str, backend: str | None = None) -> Callable[..., Any]:
    """The raw implementation a backend would dispatch to (for tests and
    benchmarks that compare implementations without the span wrapper)."""
    if name not in KERNEL_MODULES:
        raise KeyError(f"unknown kernel {name!r}")
    resolved = resolve_backend(backend)
    if resolved != DEFAULT_BACKEND:
        table = _load(resolved)
        if table and name in table:
            return table[name]
    return _reference(name)

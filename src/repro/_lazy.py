"""Lazy package exports: PEP 562's module ``__getattr__``, on the module's
class so that the same object can also guard ``__setattr__``.

Each package ``__init__`` under ``repro`` except ``repro.backend`` (which
is the kernel seam itself, with no submodule to defer) hands
:func:`export_lazily` one literal table, export name -> the submodule of
the package that defines it. Importing the package then runs none of its submodules: an export's
submodule is imported the first time the name is read, and the value is
bound on the package so later reads are plain attribute hits. The table's
keys are the package's ``__all__``, so ``from package import *`` still
yields exactly those names.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any


class _LazyPackage(types.ModuleType):
    """A package whose exports load on first access."""

    def __getattr__(self, name: str) -> Any:
        # Reached only while ``name`` is not yet bound on the package.
        submodule = self.__dict__["_exports"].get(name)
        if submodule is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(
            f"{self.__name__}.{submodule}"), name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        # The import system binds each loaded submodule onto its package.
        # A submodule named after the function it exports
        # (``repro.obs.blame``, ``repro.analysis.topology.simplify``) must
        # not shadow that export, which PEP 562 would then never reach.
        if (isinstance(value, types.ModuleType)
                and self.__dict__["_exports"].get(name) == name):
            value = getattr(value, name)
        super().__setattr__(name, value)


def export_lazily(package: str, exports: dict[str, str]) -> None:
    """Make ``exports`` (name -> defining submodule, relative to
    ``package``) the lazily loaded public names of ``package``."""
    module = sys.modules[package]
    module._exports = exports
    module.__all__ = list(exports)
    module.__class__ = _LazyPackage

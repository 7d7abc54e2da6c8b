"""Module audit: nothing under ``src/repro`` lives for its tests alone.

ROADMAP's rule: a module goes when no file in ``src/``, ``examples/`` or
``benchmarks/`` imports it — or any name it defines, however re-exported
— except its own package ``__init__``. The scan is static (``ast``), so
modules reached only dynamically are allow-listed with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: module -> why it stays although no ``import`` statement reaches it.
ALLOWED = {
    "repro.__main__": "entry point of `python -m repro`",
    "repro.backend.reference":
        "loaded by name through the backend registry",
    "repro.backend.numpy_backend":
        "loaded by name through the backend registry",
    "repro.analysis.statistics.contingency":
        "owns the statistics.bivariate_histogram backend kernel that "
        "tests/test_backends.py checks against the reference",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


SOURCES = {_module_name(p): p for p in SRC.glob("repro/**/*.py")}
PACKAGES = {m for m, p in SOURCES.items() if p.name == "__init__.py"}


def _imports(path: Path):
    """Yield ``(module, name | None)`` for every absolute import statement
    in a file (``src/`` uses no relative imports)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                yield node.module, alias.name


#: package -> {re-exported name: module its ``__init__`` took it from}
REEXPORTS = {
    pkg: {name: origin for origin, name in _imports(SOURCES[pkg])
          if name is not None and origin in SOURCES}
    for pkg in PACKAGES
}


def _defining_module(module: str, name: str | None) -> str | None:
    """The ``src/repro`` module a ``from module import name`` lands in,
    followed through package re-exports."""
    while True:
        if module not in SOURCES:
            return None
        if name is None:
            return module
        if f"{module}.{name}" in SOURCES:
            return f"{module}.{name}"
        origin = REEXPORTS.get(module, {}).get(name)
        if origin is None or origin == module:
            return module
        module = origin


def _importers(files) -> dict[str, set[str]]:
    """module -> labels of the files that import it or a name it defines."""
    out: dict[str, set[str]] = {m: set() for m in SOURCES}
    for label, path, module in files:
        for base, name in _imports(path):
            target = _defining_module(base, name)
            if target is None or target == module:
                continue
            # A module's own package ``__init__`` re-exporting it is not a use.
            if module in PACKAGES and target.rpartition(".")[0] == module:
                continue
            out[target].add(label)
    return out


def test_no_module_is_kept_alive_by_its_tests_alone():
    code = [(m, p, m) for m, p in SOURCES.items()]
    for top in ("examples", "benchmarks"):
        code += [(str(p.relative_to(ROOT)), p, None)
                 for p in (ROOT / top).rglob("*.py")]
    tests = [(str(p.relative_to(ROOT)), p, None)
             for p in (ROOT / "tests").rglob("*.py")]
    used = _importers(code)
    tested = _importers(tests)
    orphans = {m: sorted(tested[m]) for m in SOURCES
               if m not in PACKAGES and not used[m] and m not in ALLOWED}
    assert not orphans, (
        "imported by nothing in src/, examples/ or benchmarks/ but their "
        "own package __init__ (delete with their tests, or allow-list "
        "with a reason):\n" + "\n".join(
            f"  {m}  (tests: {', '.join(t) or 'none'})"
            for m, t in sorted(orphans.items())))
    stale = sorted(m for m in ALLOWED if m not in SOURCES or used[m])
    assert not stale, f"allow-list entries no longer needed: {stale}"

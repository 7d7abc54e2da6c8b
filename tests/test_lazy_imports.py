"""Lazy package exports and the import budget, each checked in a fresh
interpreter (what a process has imported is the thing under test).

The budgets count modules; nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "benchmarks" / "e2e"

#: Prints, at exit, the loaded ``repro.*`` module names and whether numpy
#: is loaded, as the last line of stderr (``--help`` exits early).
_REPORT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(["
    "sorted(m for m in sys.modules if m.split('.')[0] == 'repro'), "
    "'numpy' in sys.modules]), file=sys.stderr))\n")


def _python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(WORKLOADS),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str) -> tuple[list[str], bool]:
    """``(repro modules, numpy loaded)`` after running ``code``."""
    modules, numpy = json.loads(
        _python(_REPORT + code).stderr.strip().splitlines()[-1])
    return modules, numpy


def _cli(*args: str) -> str:
    return (f"sys.argv = ['repro', *{list(args)!r}]\n"
            "import runpy; runpy.run_module('repro', run_name='__main__')")


# -- import budget --------------------------------------------------------------


def test_import_repro_runs_no_subsystem():
    modules, numpy = _loaded("import repro")
    assert len(modules) <= 5, modules
    assert not numpy


def test_cli_help_leaves_numpy_unloaded():
    modules, numpy = _loaded(_cli("--help"))
    assert "repro.cli" in modules
    assert not numpy


def test_tables_loads_only_the_replay_model():
    modules, _ = _loaded(_cli("tables"))
    assert len(modules) <= 45, modules


@pytest.mark.parametrize("verbs", [
    [("replay", "--steps", "2")],
    [("tables",)],
    [("submit", "--jobs", "b.jsonl", "--tenant", "a", "--name", "j",
      "--steps", "2", "--buckets", "2"),
     ("serve", "--jobs", "b.jsonl", "--out-dir", "out")],
], ids=["replay", "tables", "submit-serve"])
def test_the_model_path_leaves_numpy_unloaded(verbs, tmp_path, monkeypatch):
    """The verbs that run only the DES model never touch an array, so
    none of them imports numpy, and with no observer flag none loads the
    trace exporters or the blame analysis."""
    monkeypatch.chdir(tmp_path)
    observers = ("repro.obs.blame", "repro.obs.export", "repro.obs.analysis")
    for verb in verbs:
        modules, numpy = _loaded(_cli(*verb))
        assert not numpy, verb
        assert not set(observers) & set(modules), verb


def test_a_scenario_check_loads_no_paper_row_stack(tmp_path, monkeypatch):
    """``check faults`` files every paper row but runs none, so the
    analysis and simulation stacks the rows use stay unloaded."""
    monkeypatch.chdir(tmp_path)
    modules, _ = _loaded(_cli("check", "faults", "--out-dir", "c"))
    assert "repro.checks.paper" in modules
    assert not [m for m in modules
                if m.startswith(("repro.analysis", "repro.sim"))]


def test_benchmark_workloads_skip_the_side_subsystems():
    modules, _ = _loaded("import workloads")
    assert len(modules) <= 78, modules
    side = ("repro.obs.perf", "repro.obs.report", "repro.control",
            "repro.faults", "repro.io", "repro.core.steering",
            "repro.checks")
    assert not [m for m in modules if m.startswith(side)]


# -- what the lazy exports must keep -------------------------------------------


def test_kernel_registry_is_independent_of_import_history():
    """A fresh ``import repro.backend`` knows every kernel; asking for a
    body imports the module that declares it."""
    out = _python(
        "import sys\n"
        "from repro.backend import kernel_impl, kernel_names\n"
        "assert 'repro.analysis.topology.stream_merge' not in sys.modules\n"
        "print(len(kernel_names()))\n"
        "print(kernel_impl('topology.graph_merge_tree').__module__)\n"
        "print(kernel_impl('statistics.autocorr_merge', 'reference')"
        ".__module__)\n").stdout.split()
    assert out == ["8", "repro.analysis.topology.stream_merge",
                   "repro.analysis.statistics.autocorrelation"]


def test_backend_seam_imports_no_kernel_module():
    """The seam is what cold starts import to pick the vectorized bodies
    (``set_backend("numpy")``) before any kernel runs: it must cost no
    analysis, collective or numpy import."""
    modules, numpy = _loaded("import repro.backend\n"
                             "repro.backend.set_backend('numpy')")
    assert not [m for m in modules
                if m.startswith(("repro.analysis", "repro.vmpi"))], modules
    assert not numpy


def test_exports_survive_importing_every_submodule_first():
    """Every submodule is imported before any package attribute is read,
    so a submodule named like its export (``repro.obs.blame``,
    ``repro.analysis.topology.simplify``) gets the first chance to shadow
    it. Then every ``__all__`` name must be the object its defining
    module defines, and ``import *`` must yield exactly ``__all__``."""
    out = _python(
        "import importlib, json, pkgutil, types\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, "
        "'repro.') if m.name != 'repro.__main__']\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "problems, lazy = [], []\n"
        "for name in ['repro', *names]:\n"
        "    pkg = importlib.import_module(name)\n"
        "    exports = vars(pkg).get('_exports')\n"
        "    if exports is None:\n"
        "        continue\n"
        "    lazy.append(name)\n"
        "    for attr in pkg.__all__:\n"
        "        origin = importlib.import_module(f'{name}.{exports[attr]}')\n"
        "        value = getattr(pkg, attr)\n"
        "        if (isinstance(value, types.ModuleType)\n"
        "                or value is not getattr(origin, attr)):\n"
        "            problems.append(f'{name}.{attr}')\n"
        "    star = {}\n"
        "    exec(f'from {name} import *', star)\n"
        "    if set(star) - {'__builtins__'} != set(pkg.__all__):\n"
        "        problems.append(f'{name}: import *')\n"
        "print(json.dumps([problems, lazy]))\n").stdout
    problems, lazy = json.loads(out)
    assert problems == []
    packages = {str(p.parent.relative_to(ROOT / "src")).replace(os.sep, ".")
                for p in (ROOT / "src" / "repro").rglob("__init__.py")}
    # repro.backend is the kernel seam itself, with no submodule to
    # defer; repro.analysis exports nothing.
    assert set(lazy) == packages - {"repro.backend", "repro.analysis"}

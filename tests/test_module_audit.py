"""Module and name audit: nothing under ``src/repro`` lives for its
tests alone.

ROADMAP's rule: a module goes when no file in ``src/``, ``examples/`` or
``benchmarks/`` imports it — or any name it defines, however re-exported
— except its own package ``__init__``. The same rule one level down: a
function, method or class goes when its bare name is referenced nowhere
in those trees outside its own definition (imports, ``__init__``
re-exports and ``__all__`` strings are not references). Both scans are
static (``ast``), so what is reached only dynamically, or kept for a
reason the scan cannot see, is allow-listed with that reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: module -> why it stays although no ``import`` statement reaches it.
ALLOWED = {
    "repro.__main__": "entry point of `python -m repro`",
    "repro.backend.numpy_backend":
        "loaded by name through the backend registry",
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


def _reexports(pkg: str) -> dict[str, str]:
    """``{re-exported name: module it comes from}`` of one package: its
    literal ``export_lazily`` table, or, for a package that imports
    eagerly, its ``from ... import`` statements."""
    tree = ast.parse(SOURCES[pkg].read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "export_lazily"):
            table = ast.literal_eval(node.args[1])
            return {name: f"{pkg}.{sub}" for name, sub in table.items()}
    return {name: origin for origin, name in _imports(SOURCES[pkg])
            if name is not None and origin in SOURCES}


#: package -> {re-exported name: module its ``__init__`` takes it from}
REEXPORTS = {pkg: _reexports(pkg) for pkg in PACKAGES}


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


# -- name granularity ---------------------------------------------------------

_REFERENCE = ("reference body or invariant check that tests compare kept "
              "code against")
_TUPLE_SPACE = ("paper §IV / Table I: read, query or GC half of a write half "
                "every replay reaches")
_FAULT_PATH = ("fault, crash or elastic-shrink primitive of reached code and "
               "a script of the order-contract oracle (tests/test_des.py)")
_PAPER = ("part of a paper-backed stage or extension (DESIGN.md §11: "
          "§V steering, §III linked views, Fig. 1 segmentation)")
_ACCESSOR = ("read-only accessor of a reached object documented in "
             "docs/API.md; tests observe kept behaviour through it")

#: "module:qualname" -> why the definition stays although nothing in
#: src/, examples/ or benchmarks/ refers to its name.
ALLOWED_NAMES = {
    "repro.analysis.statistics.autocorrelation:reference_autocorrelation":
        _REFERENCE,
    "repro.analysis.statistics.autocorrelation:LagAccumulator.accumulate":
        _REFERENCE,
    "repro.analysis.topology.local_tree:BoundaryTree.validate": _REFERENCE,
    "repro.analysis.topology.merge_tree:MergeTree.validate": _REFERENCE,
    "repro.analysis.topology.merge_tree:sweep_order": _REFERENCE,
    "repro.staging.hashing:ServiceRing.moved_fraction": _REFERENCE,
    "repro.staging.dataspaces:DataSpaces.query": _TUPLE_SPACE,
    "repro.staging.dataspaces:DataSpaces.stored_bytes": _TUPLE_SPACE,
    "repro.staging.dataspaces:DataSpaces.gc_versions": _TUPLE_SPACE,
    "repro.io.fpp:write_file_per_process": _TUPLE_SPACE,
    "repro.io.fpp:read_file_per_process": _TUPLE_SPACE,
    "repro.des.engine:Engine.any_of": _FAULT_PATH,
    "repro.des.engine:Engine.run_until_done": _FAULT_PATH,
    "repro.des.resources:Store": _FAULT_PATH,
    "repro.des.resources:Store.items_snapshot": _FAULT_PATH,
    "repro.core.steering:coarsen_cadence_when_quiet": _PAPER,
    "repro.analysis.topology.merge_tree:MergeTree.deepest_at_or_above":
        _PAPER,
    "repro.analysis.visualization.transfer_function:TransferFunction.grayscale":
        _PAPER,
    "repro.analysis.visualization.views:ViewSession.remove_view": _PAPER,
    "repro.backend.registry:available_backends": _ACCESSOR,
    "repro.backend.registry:kernel_names": _ACCESSOR,
    "repro.control.controller:PlacementController.decision_log_json":
        _ACCESSOR,
    "repro.obs.perf:RegressionReport.by_status": _ACCESSOR,
    "repro.staging.scheduler:TaskScheduler.max_queue_depth": _ACCESSOR,
    "repro.util.gantt:spans_from_trace": _ACCESSOR,
    "repro.util.units:bytes_to_gb": _ACCESSOR,
    "repro.vmpi.decomp:BlockDecomposition3D.rank_containing": _ACCESSOR,
    "repro.vmpi.decomp:BlockDecomposition3D.neighbors": _ACCESSOR,
}

#: Decorators whose functions are reached without their name being
#: written: backend dispatch and attribute access.
_EXEMPT_DECORATORS = {"kernel", "property", "setter"}


def _name_uses(tree: ast.AST) -> Counter:
    """How often each bare name is read or called in ``tree`` (imports
    and string constants do not count)."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def _is_exempt(node) -> bool:
    if node.name.startswith("_"):
        return True
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (target.id if isinstance(target, ast.Name)
                else getattr(target, "attr", None))
        if name in _EXEMPT_DECORATORS:
            return True
    return False


def _definitions(tree: ast.AST, prefix: str = ""):
    """Yield ``(qualname, node)`` for every def/class, methods qualified
    by their class, closures by their enclosing function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def _code_trees() -> dict[Path, ast.AST]:
    """Every file under src/, examples/ and benchmarks/, parsed."""
    code = list(SOURCES.values())
    for top in ("examples", "benchmarks"):
        code += (ROOT / top).rglob("*.py")
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in code}


def test_no_name_is_kept_alive_by_its_tests_alone():
    trees = _code_trees()
    uses: Counter = Counter()
    for tree in trees.values():
        uses += _name_uses(tree)
    unused = set()
    for module, path in SOURCES.items():
        for qualname, node in _definitions(trees[path]):
            if (not _is_exempt(node)
                    and uses[node.name] == _name_uses(node)[node.name]):
                unused.add(f"{module}:{qualname}")
    orphans = sorted(unused - set(ALLOWED_NAMES))
    assert not orphans, (
        "defined under src/repro but named nowhere in src/, examples/ or "
        "benchmarks/ outside their own definition (delete with their "
        "tests, or allow-list with a reason):\n  " + "\n  ".join(orphans))
    stale = sorted(set(ALLOWED_NAMES) - unused)
    assert not stale, f"allow-list entries no longer needed: {stale}"


# -- parameter granularity ----------------------------------------------------

#: "module:qualname(param)" -> why it stays settable although no call sets it.
ALLOWED_PARAMS = {
    # S3D's multi-stage RK and its second halo exchange (``integrator="rk2"``).
    "repro.sim.s3d:S3DProxy.__init__(params)": _PAPER,
    "repro.sim.s3d:DecomposedS3D.__init__(params)": _PAPER,
    # §V steering: the hysteresis of a refine/coarsen rule pair.
    "repro.core.steering:refine_cadence_on_topology(cooldown_steps)": _PAPER,
    "repro.core.steering:coarsen_cadence_when_quiet(cooldown_steps)": _PAPER,
    # The geometric half of put/get (§IV: index-bounds-tagged objects).
    "repro.staging.dataspaces:DataSpaces.put(bounds)": _TUPLE_SPACE,
    "repro.staging.dataspaces:DataSpaces.get(bounds)": _TUPLE_SPACE,
    # run_resilience_experiment hands on its own default (4 attempts, not 1).
    "repro.transport.dart:DartTransport.__init__(pull_max_attempts)":
        _FAULT_PATH,
    # The fields the serial reference analyses are run on.
    "repro.core.framework:HybridFramework.__init__(keep_fields)": _REFERENCE,
    # The controller's one tuning input: `run_control_scenario(controller=
    # PlacementController(ControlPolicy(...)))` runs another policy, and
    # tests/test_control.py reaches the grow, shrink and flip thresholds
    # through it.
    "repro.control.controller:PlacementController.__init__(policy)":
        ("the adaptive controller's policy object (docs/API.md); the "
         "threshold branches it guards are each tested"),
}


def _hands_on(keyword: ast.keyword, params: frozenset) -> bool:
    """``p=p`` from the enclosing function's own parameter, or
    ``p=self.p``: the value is whatever somebody else set — or nobody."""
    value = keyword.value
    if isinstance(value, ast.Name):
        return value.id == keyword.arg and value.id in params
    return (isinstance(value, ast.Attribute) and value.attr == keyword.arg
            and isinstance(value.value, ast.Name) and value.value.id == "self")


def _call_census(trees):
    """What the calls in ``trees`` pass: each keyword name given a value of
    its own (not merely handed on), the most positional arguments given to
    each callee name, and the callee names reached through ``*``/``**``
    forwarding (whose arguments a static scan cannot count)."""
    keywords: set[str] = set()
    positional: Counter = Counter()
    forwarded: set[str] = set()

    def visit(node: ast.AST, params: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = frozenset(x.arg for x in
                               a.posonlyargs + a.args + a.kwonlyargs)
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            if (any(isinstance(x, ast.Starred) for x in node.args)
                    or any(k.arg is None for k in node.keywords)):
                forwarded.add(name)
            keywords.update(k.arg for k in node.keywords
                            if k.arg and not _hands_on(k, params))
            positional[name] = max(positional[name], len(node.args))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for tree in trees:
        visit(tree, frozenset())
    return keywords, positional, forwarded


def _public_callables(tree: ast.AST):
    """``(qualname, call name, node, is_method)`` of each public module-level
    function and public method (``__init__`` by its class's name)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_exempt(node):
                yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield f"{node.name}.__init__", node.name, item, True
                elif not _is_exempt(item):
                    yield (f"{node.name}.{item.name}", item.name, item,
                           not static)


def test_no_parameter_is_settable_by_its_tests_alone():
    trees = _code_trees()
    keywords, positional, forwarded = _call_census(trees.values())
    unset = set()
    for module, path in SOURCES.items():
        for qualname, call, node, is_method in _public_callables(trees[path]):
            if call in forwarded:
                continue
            args = node.args
            ordered = args.posonlyargs + args.args
            first_default = len(ordered) - len(args.defaults)
            defaulted = [(a.arg, i - is_method)
                         for i, a in enumerate(ordered) if i >= first_default]
            defaulted += [(a.arg, None) for a, d
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for name, index in defaulted:
                by_position = index is not None and positional[call] > index
                if name not in keywords and not by_position:
                    unset.add(f"{module}:{qualname}({name})")
    orphans = sorted(unset - set(ALLOWED_PARAMS))
    assert not orphans, (
        "defaulted parameters that no call in src/, examples/ or "
        "benchmarks/ passes, by keyword or position (make each a constant "
        "and delete the branch it guards with that branch's tests, or "
        "allow-list with a reason):\n  " + "\n  ".join(orphans))
    stale = sorted(set(ALLOWED_PARAMS) - unset)
    assert not stale, f"allow-list entries no longer needed: {stale}"

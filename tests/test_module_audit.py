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
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: module -> why it stays although no ``import`` statement reaches it.
ALLOWED = {
    "repro.__main__": "entry point of `python -m repro`",
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

_REFERENCE = ("reference body or invariant check that a test compares kept "
              "code against")
_ACCESSOR = ("read-only accessor documented in docs/API.md through which a "
             "digest or golden test reads kept state")
_FAULT_PATH = ("fault, crash or elastic-shrink leg of reached code that no "
               "front door drives yet (ROADMAP item 6 decides it)")
_NO_OP = ("the disabled tracer's no-op interface: every tracer call site "
          "reaches it when tracing is off")


def _why(kind: str, *needed_by: str) -> str:
    """One allow-list reason: its kind and the tests or runs that need it."""
    return f"{kind} ({'; '.join(needed_by)})"


#: "module:qualname" -> why the definition stays although nothing in
#: src/, examples/ or benchmarks/ refers to its name (this scan), or no
#: front door enters it (``tests/front_door_census.py`` reads this table
#: too). A class entry covers every method of the class.
ALLOWED_NAMES = {f"repro.{name}": _why(kind, *needed_by)
                 for name, kind, *needed_by in [
    ("analysis.statistics.autocorrelation:reference_autocorrelation",
     _REFERENCE, "tests/test_extensions.py::TestAutocorrelationLearner"),
    ("analysis.statistics.autocorrelation:LagAccumulator.accumulate",
     _REFERENCE, "tests/test_extensions.py::TestLagAccumulator"),
    ("analysis.statistics.autocorrelation:_autocorr_cross_sums_reference",
     _REFERENCE, "tests/test_backends.py ORACLE_CASES"),
    ("analysis.topology.local_tree:BoundaryTree.validate", _REFERENCE,
     "tests/test_topology_distributed.py"),
    ("analysis.topology.merge_tree:MergeTree.validate", _REFERENCE,
     "tests/test_topology_merge_tree.py", "tests/test_topology_features.py"),
    ("analysis.topology.merge_tree:sweep_order", _REFERENCE,
     "tests/test_topology_merge_tree.py"),
    ("analysis.topology.stream_merge:compute_merge_tree_graph", _REFERENCE,
     "StreamingGlue's property in tests/test_topology_distributed.py"),
    ("analysis.topology.stream_merge:_graph_merge_tree_reference",
     _REFERENCE, "tests/test_backends.py ORACLE_CASES"),
    ("analysis.topology.distributed:_glue_batch_ordered",
     "the glue kernel's input-error path, which names the first offender",
     "tests/test_backends.py::"
     "test_glue_batch_raises_what_the_streaming_glue_raises"),
    ("backend:kernel_names", _REFERENCE, "tests/test_backends.py "
     "ORACLE_CASES has one builder per entry", "tests/test_lazy_imports.py"),
    ("io.bp:BPFile.open", _REFERENCE, "the decoder tests/test_io.py and "
     "tests/test_steering_failures.py check the writer with"),
    ("io.bp:BPFile.attrs", _REFERENCE, "tests/test_io.py"),
    ("io.bp:BPFile.variables", _REFERENCE, "tests/test_io.py"),
    ("io.bp:BPFile.shape", _REFERENCE, "tests/test_io.py"),
    ("io.bp:BPFile._var_meta", _REFERENCE, "tests/test_io.py"),
    ("io.bp:BPFile.read", _REFERENCE, "tests/test_io.py"),
    ("staging.hashing:ServiceRing.moved_fraction", _REFERENCE,
     "tests/test_staging.py"),
    ("obs.capacity:CapacityLedger.entries", _ACCESSOR,
     "tests/test_obs_golden.py"),
    ("staging.dataspaces:DataSpaces.server_rpc_counts", _ACCESSOR,
     "tests/test_replay_digest.py"),
    ("obs.tracer:NullTracer", _NO_OP,
     "tests/test_obs.py::test_null_tracer_is_inert"),
    ("obs.tracer:_NullSpan.tags", _NO_OP, "tests/test_obs.py"),
    ("des.engine:Engine.any_of", _FAULT_PATH, "tests/test_des.py"),
    ("des.engine:Engine.run_until_done", _FAULT_PATH, "tests/test_des.py",
     "tests/test_transport.py"),
    ("des.resources:Store", _FAULT_PATH, "tests/test_des.py"),
    ("des.resources:Store.items_snapshot", _FAULT_PATH, "tests/test_des.py"),
    ("des.resources:Resource.cancel", _FAULT_PATH, "tests/test_des.py"),
    ("staging.scheduler:TaskScheduler.retire_bucket", _FAULT_PATH,
     "DataSpaces.scale_to's shrink in tests/test_control.py"),
    ("staging.dataspaces:DataSpaces._on_bucket_retire", _FAULT_PATH,
     "the live count's retirement in tests/test_control.py"),
    ("staging.scheduler:TaskScheduler._retire", _FAULT_PATH,
     "tests/test_control.py"),
    ("staging.descriptors:retire_sentinel", _FAULT_PATH,
     "tests/test_control.py"),
    ("staging.buckets:_FailedPull", _FAULT_PATH,
     "terminal pull failures in tests/test_faults.py"),
]}

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


def statically_unused() -> set[str]:
    """``module:qualname`` of every non-exempt definition under src/repro
    whose bare name nothing in src/, examples/ or benchmarks/ names
    outside its own definition."""
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
    return unused


def test_no_name_is_kept_alive_by_its_tests_alone():
    unused = statically_unused()
    orphans = sorted(unused - set(ALLOWED_NAMES))
    assert not orphans, (
        "defined under src/repro but named nowhere in src/, examples/ or "
        "benchmarks/ outside their own definition (delete with their "
        "tests, or allow-list with a reason):\n  " + "\n  ".join(orphans))
    # An entry this scan does not need may still be one the front-door
    # census needs (it names what no run enters); the census flags the
    # entries neither check needs. Here: every entry names a definition.
    defined = {f"{m}:{q}" for m, p in SOURCES.items()
               for q, _ in _definitions(ast.parse(
                   p.read_text(encoding="utf-8")))}
    stale = sorted(set(ALLOWED_NAMES) - defined)
    assert not stale, f"allow-list entries naming nothing: {stale}"


# -- parameter granularity ----------------------------------------------------

#: "module:qualname(param)" -> why it stays settable although no call sets it.
ALLOWED_PARAMS = {
    # The solver's transport and numerics (an explicit dt).
    "repro.sim.s3d:S3DProxy.__init__(params)":
        _why(_REFERENCE, "tests/test_sim.py::test_explicit_dt_respected"),
    "repro.sim.s3d:DecomposedS3D.__init__(params)":
        _why(_REFERENCE, "tests/test_sim.py::test_explicit_dt_respected"),
    # run_resilience_experiment hands on its own default (4 attempts, not 1).
    "repro.transport.dart:DartTransport.__init__(pull_max_attempts)":
        _why(_FAULT_PATH, "tests/test_faults.py"),
    # The fields the serial reference analyses are run on.
    "repro.core.framework:HybridFramework.__init__(keep_fields)":
        _why(_REFERENCE, "tests/test_core_framework.py",
             "tests/test_integration_full.py"),
    # The controller's one tuning input: `run_control_scenario(controller=
    # PlacementController(ControlPolicy(...)))` runs another policy, and
    # tests/test_control.py reaches the grow, shrink and flip thresholds
    # through it.
    # A pull carries its task's flow, not the task: DartTransport.pull
    # hands its own ``flow`` parameter (the bucket's ``task.flow``) on to
    # the retry and grant steps.
    "repro.obs.tracer:Tracer.step(flow)":
        "the pull's flow, handed on from DartTransport.pull(flow=task.flow)",
    "repro.obs.tracer:NullTracer.step(flow)":
        "the null twin of Tracer.step; same signature",
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


# -- the step table ------------------------------------------------------------

#: Packages whose instrument sites emit through ``Tracer.step`` (DESIGN.md
#: "One emission per step"). ``repro.des`` keeps its in-place counter
#: stamping and ``repro.obs`` implements the records; both are outside.
STEP_PACKAGES = ("staging", "transport", "core", "vmpi", "service",
                 "control", "faults")
#: Per-record tracer calls a step site no longer spells by hand.
HAND_SPELLED = frozenset({"counter", "instant", "flow_step", "flow_through",
                          "flow_end"})
#: ``module:line`` -> why that site may still spell a record by hand.
STEP_EXEMPT: dict[str, str] = {}


def _step_trees() -> dict[str, ast.AST]:
    return {m: ast.parse(SOURCES[m].read_text(encoding="utf-8"))
            for m in sorted(SOURCES)
            if m.split(".")[1:2] and m.split(".")[1] in STEP_PACKAGES}


def _step_kinds(call: ast.Call) -> list[str]:
    """The literal kinds a ``.step(...)`` call may pass (both arms of a
    conditional included); empty when the kind is not spelled there."""
    if not call.args:
        return []
    return [n.value for n in ast.walk(call.args[0])
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_every_step_site_names_a_row_and_every_row_a_site():
    from repro.obs.steps import STEPS

    passed: set[str] = set()
    spelled: set[str] = set()
    for tree in _step_trees().values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "step"):
                passed.update(_step_kinds(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                spelled.add(node.value)
    unknown = sorted(passed - set(STEPS))
    assert not unknown, f"step kinds with no STEPS row: {unknown}"
    # A kind may travel as a literal argument to the helper that emits it
    # (DataSpaces._respawn), so a row is used when some site spells it.
    unused = sorted(set(STEPS) - spelled)
    assert not unused, f"STEPS rows no site emits: {unused}"


def test_every_step_site_passes_its_rows_tags_in_order():
    """``Tracer.step`` reads a row's tags from the call and takes a call
    that passes only the instant's (or hop's) tags as already in order,
    so each literal site passes every tag its row reads, in row order."""
    from repro.obs.steps import STEPS

    wrong: list[str] = []
    for module, tree in _step_trees().items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "step"):
                continue
            passed = [k.arg for k in node.keywords
                      if k.arg not in ("task", "span", "flow")]
            for kind in _step_kinds(node):
                row = STEPS[kind]
                instruments = [pair for group in (
                    row.counters, row.histograms, row.gauges)
                    for pair in group]
                needs = {t for _n, t in instruments if t is not None}
                needs.update(f for n, _t in instruments
                             for f in re.findall(r"{(\w+)}", n))
                orders = [row.tags, row.hop_tags if row.edge else ()]
                if (not needs <= set(passed) or any(
                        [k for k in passed if k in order] != list(order)
                        for order in orders)):
                    wrong.append(f"{module}:{node.lineno} {kind}")
    assert not wrong, f"step calls whose tags do not match the row: {wrong}"


def test_no_step_site_spells_its_records_by_hand():
    """Counters, instants and flow hops go through ``Tracer.step``, and no
    site binds the tracer's metrics registry for itself."""
    found: list[str] = []
    for module, tree in _step_trees().items():
        for node in ast.walk(tree):
            hand = (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in HAND_SPELLED)
            registry = (isinstance(node, ast.Attribute)
                        and node.attr == "metrics"
                        and "tracer" in ast.unparse(node.value))
            if hand or registry:
                found.append(f"{module}:{node.lineno}")
    bypass = sorted(set(found) - set(STEP_EXEMPT))
    assert not bypass, (
        "sites that emit records outside Tracer.step (add a STEPS row, or "
        "allow-list with a reason):\n  " + "\n  ".join(bypass))
    stale = sorted(set(STEP_EXEMPT) - set(found))
    assert not stale, f"allow-list entries no longer needed: {stale}"


# -- the front-door census's recorder ----------------------------------------


def test_census_recorder_sees_calls_under_a_profiler(tmp_path):
    """The census records with ``sys.settrace``, which a profiler a run
    enables (cProfile, as the e2e probes do) leaves alone: of two
    functions, one decorated, exactly the uncalled one is unreached, and
    every line of the called one ran."""
    import cProfile
    import importlib.util

    from tests import front_door_census as census

    path = tmp_path / "two.py"
    path.write_text("import functools\n\n\n@functools.cache\n"
                    "def called():\n    return 1\n\n\n"
                    "def uncalled():\n    return 2\n")
    spec = importlib.util.spec_from_file_location("two", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with census.record_lines(tmp_path) as seen:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            module.called()
        finally:
            profiler.disable()
    functions = census.outermost_functions(path, "two")
    missed = census.unreached(functions, seen)
    assert [f.key for f in missed] == ["two:uncalled"]
    assert census.unreached_lines(functions, seen) == {str(path): []}

"""The front-door census's line recorder and its ratchet
(``tests/front_door_census.py``), on a small module written here."""

import importlib.util
import json

from tests import front_door_census as census

MODULE = '''\
def branchy(x):
    if x:
        return "taken"
    return "not taken"


def never():
    return 0
'''


def _load(tmp_path):
    path = tmp_path / "branchy.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("branchy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_a_branch_not_run_is_counted_in_a_function_that_ran(tmp_path):
    path, module = _load(tmp_path)
    with census.record_lines(tmp_path) as seen:
        module.branchy(False)
    functions = census.outermost_functions(path, "branchy")
    assert [f.key for f in census.unreached(functions, seen)] == [
        "branchy:never"]
    # Line 3 is the untaken return; ``never`` is the function report's.
    assert census.unreached_lines(functions, seen) == {str(path): [3]}


def test_every_line_run_leaves_nothing_unreached(tmp_path):
    path, module = _load(tmp_path)
    with census.record_lines(tmp_path) as seen:
        module.branchy(True)
        module.branchy(False)
        module.never()
        module.branchy(True)
    functions = census.outermost_functions(path, "branchy")
    assert census.unreached(functions, seen) == []
    assert census.unreached_lines(functions, seen) == {str(path): []}
    assert census.body_lines(path) == {n for _, n in seen}


def test_a_rising_count_fails_and_a_new_file_fails():
    problems, lowered = census.ratchet({"a.py": 5, "b.py": 1}, {"a.py": 4})
    assert problems == [
        "a.py: 5 unreached lines, census_lines.json allows 4",
        "b.py: 1 unreached lines, not in census_lines.json"]
    assert lowered == []


def test_a_falling_count_passes_and_names_the_new_figure():
    problems, lowered = census.ratchet({"a.py": 2}, {"a.py": 4, "b.py": 3})
    assert problems == []
    assert lowered == ["a.py: 4 -> 2", "b.py: 3 -> 0"]


def test_the_committed_ratchet_names_only_files_that_exist():
    allowed = json.loads(census.RATCHET.read_text())
    assert allowed and all(n > 0 for n in allowed.values())
    assert all((census.PACKAGE / name).is_file() for name in allowed)

"""Every hostile step of the front-door census, run in-process: a bad
flag, a damaged trace or a damaged batch line exits with the census's
exit code and says the census's one line, with no traceback.

The steps and their messages are ``INVOCATIONS`` of
``tests/front_door_census.py``; the steps before a hostile one in its
group (files written, jobs submitted) run first, as the census runs them.
"""

from pathlib import Path

import pytest

from repro.cli import main
from tests import front_door_census as census


def _hostile_steps():
    for group, steps in census.INVOCATIONS.items():
        for i, (code, step, *said) in enumerate(steps):
            if said:
                yield pytest.param(steps[:i], code, step, said[0],
                                   id=f"{group}: {step}")


def _run(step: str, capsys) -> tuple[int, str]:
    """``(exit code, everything said)`` of one ``repro ...`` step."""
    try:
        code, said = main(step.split()[1:]), ""
    except SystemExit as exc:
        code, said = ((1, exc.code) if isinstance(exc.code, str)
                      else (exc.code, ""))
    out, err = capsys.readouterr()
    return code, "\n".join([said, out, err])


@pytest.mark.parametrize("before, code, step, message",
                         list(_hostile_steps()))
def test_a_hostile_step_says_one_line(before, code, step, message, tmp_path,
                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for _, earlier, *hostile in before:
        if hostile:
            continue
        if earlier.startswith("@"):
            census._prepare(Path(tmp_path), earlier)
        else:
            assert _run(earlier, capsys)[0] == 0, earlier
    got, said = _run(step, capsys)
    assert got == code, said
    assert [line for line in said.splitlines() if message in line], said
    assert "Traceback" not in said

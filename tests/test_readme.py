"""README as a test: every Quick start command must exit 0, the Python API example must run."""

import argparse
import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

from opftrack import cli, feeder

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
QUICK_START = re.search(r"## Quick start\s+```sh\n(.*?)```", README, re.S).group(1)
PYTHON_API = re.search(r"## Python API\s+```python\n(.*?)```", README, re.S).group(1)
FEEDER_JSON = re.search(r"\*\*Feeder JSON\*\* --(.*?)\n\n", README, re.S).group(1)
COMMANDS = [line for line in QUICK_START.splitlines() if line.startswith("opftrack ")]


@pytest.fixture(scope="module")
def exit_codes(tmp_path_factory):
    # the commands run once, in README order, from a directory holding a
    # copy of data/ (report reads the trajectory that run wrote)
    work = tmp_path_factory.mktemp("readme")
    shutil.copytree(ROOT / "data", work / "data")
    codes = {}
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.chdir(work)
        for command in COMMANDS:
            try:
                codes[command] = cli.main(shlex.split(command)[1:])
            except SystemExit as exc:
                codes[command] = exc.code
    return codes


def test_quick_start_is_found():
    # every subcommand is documented, and every documented one exists
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {shlex.split(c)[1] for c in COMMANDS} == set(sub.choices)


@pytest.mark.parametrize("command", COMMANDS)
def test_quick_start_command_exits_0(exit_codes, command):
    assert exit_codes[command] == 0


def test_python_api_example_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(PYTHON_API, "README.md", "exec"), {})
    assert "bound_satisfied" in out.getvalue()


def test_feeder_json_paragraph_names_the_keys_the_loader_accepts():
    # each top-level key, with the keys of its objects in the parentheses after it
    named = {
        key: set(re.findall(r"`(\w+)`", inner))
        for key, inner in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", FEEDER_JSON)
    }
    assert set(named) == feeder._TOP_KEYS
    assert named["slack"] == feeder._SLACK_KEYS
    assert named["lines"] == {key for key, _, _ in feeder._LINE_FIELDS}
    assert named["der_nodes"] == {key for key, _, _ in feeder._DER_FIELDS}

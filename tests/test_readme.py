"""README Quick start as a test: every command there must exit 0."""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

from opftrack import cli

ROOT = Path(__file__).resolve().parents[1]
QUICK_START = re.search(
    r"## Quick start\s+```sh\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S
).group(1)
COMMANDS = [line for line in QUICK_START.splitlines() if line.startswith("opftrack ")]
DROOP_COLLAPSES = pytest.mark.xfail(
    strict=True,
    reason="the zero-deadband droop has loop gain > 1 on feeder36: plant collapse at step 3, exit 3",
)


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
    assert len(COMMANDS) >= 7
    assert any(c.startswith("opftrack run") for c in COMMANDS)


@pytest.mark.parametrize(
    "command",
    [pytest.param(c, marks=DROOP_COLLAPSES) if "--strategy droop" in c else c for c in COMMANDS],
)
def test_quick_start_command_exits_0(exit_codes, command):
    assert exit_codes[command] == 0

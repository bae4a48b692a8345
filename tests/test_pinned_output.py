"""The whole output of `dualpcf verify --suite all` and `dualpcf examples
run`, pinned: exit code, stdout and stderr, as recorded in `expected/`.
After a change that means to alter them, record them again with
`PYTHONPATH=src python tests/test_pinned_output.py`."""
import contextlib
import io
from pathlib import Path

import pytest

from dualpcf import cli

EXPECTED = Path(__file__).resolve().parent / "expected"
COMMANDS = {"verify": ["verify", "--suite", "all"],
            "examples": ["examples", "run"]}
PARTS = ("exit", "stdout", "stderr")


def run(argv):
    """`(exit, stdout, stderr)` of `cli.main(argv)`, the exit code as a
    line of text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n", out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", COMMANDS)
def test_the_output_is_the_recorded_one(name, monkeypatch):
    monkeypatch.delenv("DUALPCF_BUDGET", raising=False)
    for part, got in zip(PARTS, run(COMMANDS[name])):
        assert got == (EXPECTED / f"{name}.{part}").read_text(), part


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        for part, text in zip(PARTS, run(argv)):
            (EXPECTED / f"{name}.{part}").write_text(text)

"""Byte-identity gate for the README CLI examples and the demos.

Every ``thetacalc ...`` line in README.md's shell blocks runs in-process
through ``cli.main``, and every ``python demos/...`` line runs its script;
stdout, stderr and the exit code must equal the committed file under
``tests/golden/``.  The commands are read from README.md itself, so the
README and this test cannot drift apart.

After an intended output change, re-record the files with

    PYTHONPATH=src python tests/test_golden.py --record

and name the change in CHANGES.md.
"""
import hashlib
import io
import re
import runpy
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from thetacalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_commands():
    """The shell commands of README.md's ```sh blocks, continuations joined."""
    text = (ROOT / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith(("thetacalc ", "python demos/")):
                out.append(shlex.join(shlex.split(line, comments=True)))
    return out


def golden_name(command: str) -> str:
    argv = shlex.split(command)
    if argv[0] == "python":
        return "demo_%s.txt" % Path(argv[1]).stem
    sub = next(a for a in argv[1:] if not a.startswith("-") and not a.isdigit())
    return "cli_%s_%s.txt" % (sub, hashlib.sha1(command.encode()).hexdigest()[:8])


def run(command: str) -> str:
    """The command's exit code, stdout and stderr as one text."""
    argv = shlex.split(command)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if argv[0] == "python":
            try:
                runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        else:
            code = main(argv[1:])
    return "$ %s\nexit %s\n--- stdout\n%s--- stderr\n%s" % (
        command, code, out.getvalue(), err.getvalue())


COMMANDS = readme_commands()


def test_readme_lists_every_demo():
    demos = sorted("python demos/%s" % p.name for p in (ROOT / "demos").glob("*.py"))
    assert sorted(c for c in COMMANDS if c.startswith("python ")) == demos


def test_no_stale_golden_files():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        golden_name(c) for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=golden_name)
def test_output_matches_golden(command):
    assert run(command) == (GOLDEN / golden_name(command)).read_text()


def record():
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for command in COMMANDS:
        (GOLDEN / golden_name(command)).write_text(run(command))
    print("recorded %d golden files in %s" % (len(COMMANDS), GOLDEN))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()

"""The README's examples stay runnable: its commands parse, its Python block runs."""

import re
import shlex
from pathlib import Path

import pytest

from spectraproj.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
# (info string, body) of each fenced block; a fence opens and closes on its own line
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
COMMANDS = [
    line for lang, body in BLOCKS if lang == ""
    for line in body.splitlines() if line.startswith("spectraproj ")
]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line)[1] for line in COMMANDS}
    assert shown == {"solve", "fr", "pipeline", "diagnose", "gen", "experiment"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    args = _build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_readme_python_block_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, str(README), "exec"), {})
    status, k, relres = capsys.readouterr().out.split()
    assert status == "Solved" and int(k) > 0 and float(relres) <= 1e-13

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


def _flags(text):
    return set(re.findall(r"`(--[\w-]+)`", text))


def test_readme_flag_table_matches_the_parser():
    text = README.read_text()
    source, newton = re.search(
        r"The source group is(.*?); the Newton group is(.*?)\.", text, re.S
    ).groups()
    # the group columns, in the table's order
    groups = [_flags(source), {"--seed"}, _flags(newton), {"--out"}, {"--emit"}]
    table = re.search(r"^\| subcommand \|.*?\n\n", text, re.M | re.S)[0]
    (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
    for row in table.strip().splitlines()[2:]:
        name, *marks, own = [c.strip() for c in row.strip("|").split("|")]
        want = _flags(own).union(*(g for g, mark in zip(groups, marks) if mark == "yes"))
        taken = {s for a in sub.choices[name.strip("`")]._actions for s in a.option_strings}
        assert taken - {"-h", "--help"} == want, name

"""Smoke test: the README's quick start and command lines run as written.

Every `ris-secrecy ...` line of the "Command line" block goes through
`cli.main` in a scratch directory that also holds the README's own scenario
JSON as `my_scenario.json`, and must exit 0; the quick-start snippet is
executed as Python.
"""

import re
import shlex
from pathlib import Path

import pytest

from ris_secrecy import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(section: str, lang: str) -> str:
    """The first ```lang block after the '## section' heading."""
    body = README.split(f"## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


COMMANDS = [line.split("  #", 1)[0].strip() for line in fenced("Command line", "sh").splitlines()
            if line.startswith("ris-secrecy ")]


def test_readme_lists_every_subcommand():
    assert {shlex.split(c)[1] for c in COMMANDS} == {
        "analytic", "simulate", "sweep", "validate", "quadrature-dump"}


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_scenario.json").write_text(fenced("Command line", "json"), encoding="utf-8")
    assert cli.main(shlex.split(command)[1:]) == cli.EXIT_OK, capsys.readouterr().err


def test_readme_quick_start_runs(capsys):
    exec(compile(fenced("Quick start", "python"), "README quick start", "exec"), {})
    assert capsys.readouterr().out.strip()

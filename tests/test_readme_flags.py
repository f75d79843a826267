"""README and the CLI name the same flags: every ``--flag`` README.md shows
is accepted by some ``msde`` subcommand, and every flag of every subcommand
appears in README.md."""

import re
from pathlib import Path

from msde.cli import _build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# README flags that no msde command takes: pip's, and the abbreviation shown
# being refused.
NOT_MSDE_FLAGS = {"--no-build-isolation", "--max"}


def _command_flags() -> dict[str, set[str]]:
    return {command: {flag for flag in parser._option_string_actions
                      if flag.startswith("--")} - {"--help"}
            for command, parser in _build_parser().commands.items()}


def _readme_flags() -> set[str]:
    return set(re.findall(r"--[a-z][a-z0-9]*(?:-[a-z0-9]+)*", README))


def test_every_readme_flag_is_accepted():
    accepted = set().union(*_command_flags().values())
    assert _readme_flags() - NOT_MSDE_FLAGS - accepted == set()
    assert not NOT_MSDE_FLAGS & accepted


def test_every_command_flag_is_in_readme():
    commands = _command_flags()
    assert set(commands) == {"run", "tune", "synth", "eval"}
    readme = _readme_flags()
    for command, flags in commands.items():
        assert flags - readme == set(), command

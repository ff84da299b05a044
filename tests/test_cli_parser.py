"""``main`` builds the parser of the named subcommand only.

The per-command parser is compared with the parser of all four
subcommands in the same interpreter, so the comparison holds on every
Python whatever bytes its argparse writes; a count of the arguments
and subcommands added guards the saving without a timing bound.
"""

import argparse
import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from test_fuzz import commands

from diffinc import cli

COMMANDS = ["solve", "converge", "check", "list-examples"]
REQUIRED = {
    "solve": ["--map", "example1", "--x0", "0", "--T", "1"],
    "converge": ["--map", "example1", "--x0", "0", "--T", "1", "--N0", "4"],
    "check": ["wcm", "--map", "example1"],
    "list-examples": [],
}


def outcome(parser, argv):
    """What parsing ``argv`` gives: the namespace, the usage error, or
    the help text and exit code."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out):
        try:
            return "namespace", repr(vars(parser.parse_args(argv)))  # nan != nan
        except cli.UsageError as e:
            return "error", str(e)
        except SystemExit as e:
            return "exit", e.code, out.getvalue()


def assert_same_as_the_full_parser(argv):
    full = outcome(cli.build_parser(), argv)
    assert outcome(cli.build_parser(argv[0] if argv else None), argv) == full
    return full


FIXED = [[], ["-h"], ["--help"], ["bogus"], ["check", "wcm", "--map", "example1", "extra"]]
for command in COMMANDS:
    FIXED += [[command, "--help"], [command, *REQUIRED[command], "--frobnicate"]]
    if command != "list-examples":
        FIXED.append([command, *REQUIRED[command][:-2]])  # the last required option missing


@pytest.mark.parametrize("argv", FIXED, ids=" ".join)
def test_fixed_command_lines_match_the_full_parser(argv):
    result = assert_same_as_the_full_parser(argv)
    if argv[-1:] in (["-h"], ["--help"]):
        assert result[:2] == ("exit", 0) and result[2].startswith("usage: diffinc")
    else:
        assert result[0] == "error"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_fuzzed_command_lines_match_the_full_parser(argv):
    assert_same_as_the_full_parser(argv)


@pytest.fixture
def added(monkeypatch):
    """The parser prog of every argument added, and every subcommand."""
    log = {"arguments": [], "subcommands": []}
    add_argument = argparse.ArgumentParser.add_argument
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_argument(self, *args, **kwargs):
        log["arguments"].append(self.prog)
        return add_argument(self, *args, **kwargs)

    def counting_add_parser(self, name, **kwargs):
        log["subcommands"].append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    return log


def test_a_command_adds_only_its_own_arguments(added, capsys):
    assert cli.main(["check", "wcm", "--map", "example1", "--samples", "5"]) == 0
    assert added["subcommands"] == ["check"]
    assert sorted(set(added["arguments"])) == ["diffinc", "diffinc check"]
    # -h, the condition, 3 map and 5 sampling options
    assert added["arguments"].count("diffinc check") == 10


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]])
def test_no_command_builds_all_four(added, capsys, argv):
    with contextlib.suppress(SystemExit):
        assert cli.main(argv) == 1
    assert added["subcommands"] == COMMANDS
    if argv == ["--help"]:
        assert "{solve,converge,check,list-examples}" in capsys.readouterr().out

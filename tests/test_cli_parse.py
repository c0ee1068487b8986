"""Argument parsing: the one-command parser against the full command tree.

``run_command`` parses with a parser built for the invoked command only
and falls back to the full tree for help and usage errors.  These tests
pin that the result is the same as the full tree's, that help and error
output are byte-identical to it, and that the short path is really taken.
"""

from __future__ import annotations

import argparse

import pytest

from fedweave import cli
from fedweave.cli import COMMANDS, build_parser, parse_args, run_command

# At least one valid argv per command in the table, with the workspace
# option in each of its spellings and every nargs="+"/"?" positional.
VALID = [
    ["init"],
    ["-w", "ws", "init", "--demo"],
    ["validate", "b.yaml"],
    ["deploy", "b.yaml"],
    ["-wws", "deploy", "b.yaml", "--project", "p", "--region", "r", "--lax-conflicts",
     "--budget", "10", "--seed", "3", "--no-converge"],
    ["add-unit", "moodle"],
    ["--workspace=ws", "add-unit", "moodle", "-n", "2", "--to", "lxd:0"],
    ["remove-unit", "moodle/1", "--no-converge"],
    ["config", "postgresql", "listen_port=6432"],
    ["--work", "ws", "config", "moodle", "a=1", "b=2", "--seed", "9"],
    ["add-relation", "haproxy:reverseproxy", "moodle:website"],
    ["converge"],
    ["converge", "--budget", "5"],
    ["status"],
    ["-w", "ws", "status", "--format", "json"],
    ["--workspace", "ws", "status", "--format=text"],
    ["plan", "compile", "b.yaml"],
    ["plan", "compile", "b.yaml", "-o", "out.plan"],
    ["plan", "execute", "out.plan", "--project", "p", "--budget", "7"],
    ["plan", "dot"],
    ["-w", "ws", "plan", "dot", "b.yaml"],
    ["machine", "add-zone", "garr-01", "az1"],
    ["machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
     "--disk", "102400", "-n", "4"],
    ["machine", "enlist", "--zone", "r/a", "--cores", "1", "--mem", "1", "--disk", "1",
     "--arch", "arm64", "--series", "bionic", "--tags", "ssd,gpu"],
    ["machine", "list"],
    ["machine", "list", "--format", "json"],
    ["machine", "release", "3"],
    ["region", "register", "garr-pa", "compute=https://c", "volume=https://v"],
    ["region", "validate", "garr-pa"],
    ["region", "reject", "garr-pa"],
    ["region", "enlist", "garr-pa", "--az", "az2", "--cores", "4", "--mem", "8192",
     "--disk", "102400"],
    ["region", "list", "--format", "json"],
    ["region", "sync", "garr-pa"],
    ["region", "catalog"],
    ["region", "catalog", "garr-pa"],
    ["identity", "map", "alice@garr.it"],
    ["-wws", "identity", "map", "alice@garr.it", "bob@garr.it"],
    ["quota", "create", "garr/cloud"],
    ["quota", "set", "garr", "vcpus=1000", "ram=1048576"],
    ["quota", "charge", "cloud", "vcpus=2"],
    ["quota", "release", "cloud", "vcpus=1", "ram=2"],
    ["quota", "show"],
    ["--work=ws", "quota", "show", "cloud", "--format", "json"],
    ["quota", "role", "cloud", "alice"],
    ["quota", "role", "cloud", "alice", "admin"],
]

# Help at several levels and usage errors: every one is answered by the
# full tree.
NOT_PARSED = [
    [],
    ["no-such-command"],
    ["quota"],
    ["status", "--format", "xml"],
    ["status", "--bogus"],
    ["-h"],
    ["quota", "show", "-h"],
    ["status", "--h"],
    ["add-unit"],
]


@pytest.fixture
def parsers_built(monkeypatch):
    """Count the ``ArgumentParser`` objects made from here on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def full_tree_result(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        build_parser().parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


def test_every_command_has_a_valid_case():
    covered = {tuple(cli._command_words(argv)) for argv in VALID}
    assert covered == {words for words, _, _, _ in COMMANDS}


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_same_namespace_as_full_tree(argv):
    assert vars(parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_argv_builds_only_its_branch(argv, parsers_built):
    args = parse_args(argv)
    # the root, one parser per command word, and nothing else
    assert len(parsers_built) == (3 if args.command in cli.GROUPS else 2)


def test_full_tree_size(parsers_built):
    build_parser()
    assert len(parsers_built) == 1 + len(COMMANDS) + len(cli.GROUPS)


@pytest.mark.parametrize(
    ("argv", "expected"), [(["status"], 2), (["quota", "show"], 3)]
)
def test_run_command_takes_the_short_path(argv, expected, tmp_path, capsys, parsers_built):
    # The workspace is not initialised, so the command fails after parsing.
    assert run_command(["-w", str(tmp_path), *argv]) == 1
    assert len(parsers_built) == expected
    assert "not an initialised workspace" in capsys.readouterr().err


@pytest.mark.parametrize("argv", NOT_PARSED, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_errors_byte_identical(argv, capsys):
    code = run_command(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == full_tree_result(argv, capsys)
    assert out or err


def test_full_tree_usage_lists_every_command(capsys):
    assert run_command(["no-such-command"]) == 2
    usage = capsys.readouterr().err
    assert "{init,validate,deploy," in usage and ",identity,quota}" in usage

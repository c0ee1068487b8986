"""Argument parsing: the plain path against the full command tree.

``run_command`` builds the namespace of a plain argv straight from the
invoked ``COMMANDS`` entry, with no parser at all, and leaves every other
argv (help, usage errors, abbreviations) to the full argparse tree.  These
tests pin that the result is the same as the full tree's, for fixed and
for generated argv, that help and error output are byte-identical to it,
and that the plain path is really taken.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    ["add-relation", "a:x", "--budget", "5", "b:y", "--no-converge"],
    ["deploy", "--project", "cloud", "b.yaml"],
    ["add-unit", "--to", "lxd:0", "moodle", "-n", "2"],
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
    parse_args(argv)
    # A plain argv builds no parser; an abbreviation (--work) is the full tree's.
    abbreviated = argv[0].startswith("--work") and not argv[0].startswith("--workspace")
    assert len(parsers_built) == (1 + len(COMMANDS) + len(cli.GROUPS) if abbreviated else 0)


def test_full_tree_size(parsers_built):
    build_parser()
    assert len(parsers_built) == 1 + len(COMMANDS) + len(cli.GROUPS)


@pytest.mark.parametrize("argv", [["status"], ["quota", "show"]])
def test_run_command_takes_the_short_path(argv, tmp_path, capsys, parsers_built):
    # The workspace is not initialised, so the command fails after parsing.
    assert run_command(["-w", str(tmp_path), *argv]) == 1
    assert parsers_built == []
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


# -- generated argv --------------------------------------------------------

WORDS = sorted({word for words, _, _, _ in COMMANDS for word in words})
OPTIONS = sorted({
    flag for _, _, arguments, _ in COMMANDS for flags, _ in arguments for flag in flags
    if flag.startswith("-")
} | {"-w", "--workspace", "-h", "--help"})
# Values that argparse treats specially, and ordinary ones.
SPECIAL = ["-5", "", "--", "-h", "0x10", "-wws"]
ORDINARY = ["7", "json", "text", "ws", "a=1", "moodle"]


def spellings(options: list[str]) -> list[str]:
    """Each option, its abbreviations and its ``=`` forms."""
    found = set(options)
    for option in options:
        if option.startswith("--"):
            found |= {option[:3], option[:-1]}
            found |= {f"{option}={value}" for value in ("json", "7", "ws", "", "-5")}
    return sorted(found)


VOCABULARY = WORDS + spellings(OPTIONS) + SPECIAL + ORDINARY
# No workspace option, or one in a plain or another spelling, with any value.
WORKSPACE = st.one_of(
    st.just([]),
    st.tuples(st.sampled_from(["-w", "--workspace", "--work"]),
              st.sampled_from(ORDINARY + SPECIAL)).map(list),
    st.sampled_from([f"{option}{value}" for option in ("-w", "-w=", "--workspace=", "--work=")
                     for value in ("ws", "-5", "")]).map(lambda token: [token]),
)


def spelled_in_full(flags: tuple[str, ...], spec: dict):
    """One use of an option, spelled in full, with a value it accepts or
    a special one."""
    if spec.get("action") == "store_true":
        return st.sampled_from(flags).map(lambda flag: [flag])
    accepted = spec.get("choices") or (["7", "0"] if "type" in spec else ORDINARY)
    value = st.one_of(st.sampled_from(accepted), st.sampled_from(SPECIAL))
    return st.tuples(st.sampled_from(flags), value).map(list)


@st.composite
def entry_argv(draw) -> list[str]:
    """An argv shaped like a call of one ``COMMANDS`` entry: a workspace
    spelling, the words, then about as many values as it has positionals,
    with options after them, or before or between them.  Half the options
    are the entry's own, spelled in full; the rest are any spelling of
    them, alone or with any value."""
    words, _, arguments, _ = draw(st.sampled_from(COMMANDS))
    options = [(flags, spec) for flags, spec in arguments if flags[0].startswith("-")]
    any_option = st.sampled_from([*spellings([f for flags, _ in options for f in flags]), "-w"])
    any_value = st.sampled_from(ORDINARY + SPECIAL)
    use = st.one_of(any_option.map(lambda flag: [flag]),
                    st.tuples(any_option, any_value).map(list))
    if options:
        use = st.one_of(st.one_of(*(spelled_in_full(*option) for option in options)), use)
    uses = draw(st.lists(use, max_size=3))
    positionals = len(arguments) - len(options)
    count = draw(st.one_of(st.just(positionals),
                           st.integers(max(0, positionals - 1), positionals + 1)))
    values = draw(st.lists(st.sampled_from(ORDINARY), min_size=count, max_size=count))
    # Each use takes a slot: 0 is before every value, i is after the i-th.
    # Half of them take the last, after every value.
    slots = [draw(st.one_of(st.just(count), st.integers(0, count))) for _ in uses]
    argv = [*draw(WORKSPACE), *words]
    for slot in range(count + 1):
        if slot:
            argv.append(values[slot - 1])
        for tokens, taken in zip(uses, slots):
            if taken == slot:
                argv += tokens
    return argv


def full_tree_outcome(argv: list[str]) -> dict | tuple[int, str, str]:
    """The full tree's namespace for argv, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return int(exc.code or 0), out.getvalue(), err.getvalue()


# Two in three argv are shaped like an entry's call, and over a quarter of
# those parse; almost every list drawn from VOCABULARY is a usage error.
@settings(deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(st.lists(st.sampled_from(VOCABULARY), max_size=8),
                      entry_argv(), entry_argv()))
# A value that argparse reads as an option or as "--", a flag given a
# value, a missing required option, a workspace spelling argparse splits
# at "=": each looks plain, and the full tree rejects it or reads it apart.
@example(argv=["deploy", "b.yaml", "--project", "--"])
@example(argv=["add-unit", "moodle", "--to", "-wws"])
@example(argv=["-w", "-wws", "status"])
@example(argv=["init", "--demo=ws"])
@example(argv=["machine", "enlist", "--zone", "r/a", "--cores", "1", "--mem", "1"])
@example(argv=["-w=ws", "status"])
# Options before and between positionals that each take one value, and
# an option that splits a variadic positional, which argparse rejects.
@example(argv=["deploy", "--project", "cloud", "b.yaml"])
@example(argv=["add-relation", "a:x", "--budget", "5", "b:y"])
@example(argv=["config", "moodle", "a=1", "--seed", "9", "b=2"])
def test_generated_argv_gets_the_full_tree_result(argv, tmp_path, monkeypatch):
    # An argv parsed where the full tree exits would run its command here.
    monkeypatch.chdir(tmp_path)
    expected = full_tree_outcome(argv)
    if isinstance(expected, dict):
        assert vars(parse_args(argv)) == expected
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert (code, out.getvalue(), err.getvalue()) == expected


# -- the cold path -----------------------------------------------------------

COLD_READS = """\
import sys
sys.path.insert(0, sys.argv[2])
from fedweave import cli
calls = []
full_tree = cli.build_parser
cli.build_parser = lambda: calls.append(1) or full_tree()
for argv in (["status", "--format", "json"], ["quota", "show"]):
    assert cli.run_command(["-w", sys.argv[1], *argv]) == 0, argv
print("build_parser", len(calls), "locale", "locale" in sys.modules)
"""


@pytest.fixture
def json_workspace(tmp_path, capsys):
    """A workspace with a deployed model and a project, its state as JSON."""
    for argv in (
        ["init", "--demo"],
        ["machine", "add-zone", "garr-01", "az1"],
        ["machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
         "--disk", "102400", "-n", "4"],
        ["deploy", str(tmp_path / "moodle-bundle.yaml")],
        ["quota", "create", "garr"],
    ):
        assert run_command(["-w", str(tmp_path), *argv]) == 0, capsys.readouterr().err
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("flags", [[], ["-X", "dev"], ["-I"]], ids=" ".join)
def test_plain_reads_import_no_locale_and_build_no_parser(flags, json_workspace):
    # argparse's first message lookup imports locale through gettext; a
    # plain read must make none.  -I ignores PYTHONPATH, hence sys.argv[2].
    source = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, *flags, "-c", COLD_READS, str(json_workspace), source],
        capture_output=True, text=True, env={**os.environ, "LANG": "de_DE.UTF-8"},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "build_parser 0 locale False"

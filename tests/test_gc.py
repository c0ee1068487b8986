"""Commands leave no reference cycles, so they can run without the collector.

``run_command`` turns Python's cyclic garbage collector off for the length
of a command and back on afterwards if it was on.  That is safe only while
reference counting frees everything a command makes: an object in a
reference cycle would then stay in memory until the next collection.  So
every command below runs with the collector off and ``gc.DEBUG_SAVEALL``
set, and a ``gc.collect()`` after it must find no unreachable object.  A
command that adds a cycle fails here, with the objects found.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from fedweave import cli
from fedweave.cli import run_command

ENLIST = ("machine", "enlist", "--zone", "garr-01/az1",
          "--cores", "4", "--mem", "8192", "--disk", "102400", "-n", "4")

UNRELATED_BUNDLE = """\
series: xenial
applications:
  moodle: {charm: "cs:~csd-garr/moodle", num_units: 1}
  haproxy: {charm: cs:haproxy, num_units: 1}
relations: []
"""

#: Argvs the plain parser hands to argparse (help, usage errors, and here
#: an option before a positional), with their exit codes.  argparse then
#: builds the whole command tree, a web of reference cycles (each parser
#: holds its actions, and each action group holds its parser and its
#: parser's actions), about 1,300 objects that only the collector frees.
#: They are left out of the sequence by name;
#: ``test_argparse_fallback_leaves_cycles_for_the_collector`` shows they
#: are the reason, and the collector, back on after the command, frees them.
ARGPARSE_FALLBACK = {
    ("status", "--bogus"): 2,
    ("--help",): 0,
    ("deploy",): 2,
    ("quota", "show", "--format", "json", "garr"): 0,
}


@pytest.fixture
def collector_off():
    """Automatic collection off, as a caller who turned it off has it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def cycles_left(workspace, argv) -> tuple[int, int, list[tuple[str, int]]]:
    """Run one command; return its exit code, the number of unreachable
    objects a collection then finds, and their commonest types."""
    gc.set_debug(0)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    code = run_command(["-w", str(workspace), *argv])
    found = gc.collect()
    kinds = Counter(type(obj).__qualname__ for obj in gc.garbage).most_common(5)
    gc.set_debug(0)
    gc.garbage.clear()
    return code, found, kinds


def _files(workspace) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in workspace.glob("*") if path.is_file()}


def test_every_command_leaves_no_cycle(tmp_path, capsys, collector_off):
    main, related, scaled, replay = (tmp_path / name for name in
                                     ("main", "related", "scaled", "replay"))
    setup = [("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"), ENLIST]
    steps = [(main, argv, 0) for argv in setup] + [
        (main, ("quota", "create", "garr"), 0),
        (main, ("quota", "create", "garr/cloud"), 0),
        (main, ("quota", "set", "garr", "vcpus=100", "ram=100000", "disk=1000",
                "instances=100"), 0),
        (main, ("quota", "set", "cloud", "vcpus=8", "ram=16384", "disk=200", "instances=10"), 0),
        (main, ("deploy", str(main / "moodle-bundle.yaml"), "--project", "cloud"), 0),
        (main, ("status",), 0),
        (main, ("status", "--format", "json"), 0),
        (main, ("config", "moodle", "site_name=Campus"), 0),
        (main, ("add-unit", "moodle"), 0),
        (main, ("add-unit", "moodle", "--to", "lxd:0"), 0),
        (main, ("remove-unit", "moodle/1"), 0),
        (main, ("converge",), 0),
        (main, ("quota", "show"), 0),
        (main, ("quota", "show", "cloud", "--format", "json"), 0),
        # Failures: a one-line error, exit 1, and the workspace files as they were.
        (main, ("deploy", str(main / "scaled-bundle.yaml")), 1),
        (main, ("add-unit", "nosuch"), 1),
        (main, ("remove-unit", "moodle/9"), 1),
        (main, ("config", "moodle", "nosuch=1"), 1),
    ]
    steps += [(related, argv, 0) for argv in setup] + [
        (related, ("deploy", str(tmp_path / "unrelated.yaml")), 0),
        (related, ("add-relation", "haproxy:reverseproxy", "moodle:website"), 0),
    ]
    steps += [(scaled, argv, 0) for argv in setup] + [
        (scaled, ("deploy", str(scaled / "scaled-bundle.yaml")), 0),
        (scaled, ("status", "--format", "json"), 0),
    ]
    steps += [(replay, argv, 0) for argv in setup] + [
        (replay, ("plan", "compile", str(replay / "scaled-bundle.yaml"),
                  "-o", str(tmp_path / "scaled.plan")), 0),
        (replay, ("plan", "execute", str(tmp_path / "scaled.plan")), 0),
    ]
    (tmp_path / "unrelated.yaml").write_text(UNRELATED_BUNDLE)
    for workspace, argv, want_code in steps:
        assert argv not in ARGPARSE_FALLBACK
        before = _files(workspace)
        code, found, kinds = cycles_left(workspace, argv)
        _, err = capsys.readouterr()
        assert code == want_code, (argv, err)
        if want_code:
            assert len(err.splitlines()) == 1, (argv, err)
            assert _files(workspace) == before, argv
        assert found == 0, f"{' '.join(argv)} left {found} objects in cycles: {kinds}"
        assert not gc.isenabled()


@pytest.mark.parametrize("argv", ARGPARSE_FALLBACK, ids=" ".join)
def test_argparse_fallback_leaves_cycles_for_the_collector(tmp_path, capsys, collector_off, argv):
    run_command(["-w", str(tmp_path), "init"])
    code, found, _ = cycles_left(tmp_path, argv)
    assert code == ARGPARSE_FALLBACK[argv]
    assert found > 500


class TestCollectorIsRestored:
    def test_off_while_a_command_runs(self, tmp_path, capsys, monkeypatch):
        seen = []
        require_init = cli.Workspace.require_init
        monkeypatch.setattr(cli.Workspace, "require_init",
                            lambda ws: seen.append(gc.isenabled()) or require_init(ws))
        assert run_command(["-w", str(tmp_path), "init"]) == 0
        assert run_command(["-w", str(tmp_path), "quota", "show"]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_after_a_success(self, tmp_path, capsys):
        assert gc.isenabled()
        assert run_command(["-w", str(tmp_path), "init", "--demo"]) == 0
        assert gc.isenabled()

    def test_after_a_fedweave_error(self, tmp_path, capsys):
        assert run_command(["-w", str(tmp_path), "init"]) == 0
        assert run_command(["-w", str(tmp_path), "status"]) == 1
        assert capsys.readouterr().err == "cli: no model in this workspace (deploy a bundle first)\n"
        assert gc.isenabled()

    def test_after_an_exception_that_escapes(self, tmp_path, capsys, monkeypatch):
        def interrupt(ws):
            raise KeyboardInterrupt
        assert run_command(["-w", str(tmp_path), "init"]) == 0
        monkeypatch.setattr(cli.Workspace, "require_init", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_command(["-w", str(tmp_path), "status"])
        assert gc.isenabled()

    @pytest.mark.parametrize("argv", ARGPARSE_FALLBACK, ids=" ".join)
    def test_after_the_argparse_fallback(self, tmp_path, capsys, argv):
        # --help and the usage errors end in argparse's SystemExit.
        assert run_command(["-w", str(tmp_path), "init"]) == 0
        assert run_command(["-w", str(tmp_path), *argv]) == ARGPARSE_FALLBACK[argv]
        assert gc.isenabled()

    @pytest.mark.parametrize("argv", [("init",), ("status",), ("status", "--bogus")], ids=" ".join)
    def test_stays_off_for_a_caller_who_had_it_off(self, tmp_path, capsys, collector_off, argv):
        run_command(["-w", str(tmp_path), *argv])
        assert not gc.isenabled()

"""The ``fedweave`` entry point, run in a fresh process.

Every other test drives ``run_command`` in-process.  These check what only
a new process shows: the exit status the shell sees, the bytes a child
prints, and which ``fedweave`` the child imports.

``fedweave_child`` runs the installed ``fedweave`` console script when this
process imported ``fedweave`` from outside the checkout, as a run of the
tests after ``pip install .`` without ``src/`` on the path does; otherwise
it runs ``python -c "from fedweave.cli import main; main()"`` on the
``src/`` this process imported from.
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import fedweave
from fedweave import cli
from fedweave.cli import run_command

CHECKOUT = Path(__file__).resolve().parent.parent
#: Whether this process imported ``fedweave`` from outside the checkout.
INSTALLED = CHECKOUT not in Path(fedweave.__file__).resolve().parents


def fedweave_child(*argv: str, env: dict[str, str] | None = None, run=subprocess.run,
                   **options) -> subprocess.CompletedProcess | subprocess.Popen:
    """Run ``fedweave argv...`` in a child process, with ``env`` added to
    this process's environment, by ``run`` with ``options``: by default to
    its end, capturing what it prints as text."""
    if INSTALLED:
        script = shutil.which("fedweave")
        assert script, f"fedweave is imported from {fedweave.__file__}, but no fedweave is on PATH"
        command, extra = [script], {}
    else:
        source = os.path.dirname(os.path.dirname(fedweave.__file__))
        command = [sys.executable, "-c", "from fedweave.cli import main; main()"]
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        extra = {"PYTHONPATH": path}
    return run([*command, *argv], env={**os.environ, **extra, **(env or {})},
               **(options or {"capture_output": True, "text": True}))


def test_child_imports_the_fedweave_this_process_imported(tmp_path):
    # In verbose mode the interpreter names each source file it loads a module from.
    child = fedweave_child("-w", str(tmp_path), "init", env={"PYTHONVERBOSE": "1"})
    assert child.returncode == 0, child.stderr
    lines = child.stderr.splitlines()
    for module in (fedweave, cli):
        name = os.path.join("fedweave", os.path.basename(module.__file__))
        loaded = [line for line in lines if line.startswith("# ") and line.endswith(os.sep + name)]
        assert loaded and all(line.endswith(f" {module.__file__}") for line in loaded), loaded


@pytest.mark.parametrize(
    ("argv", "code"), [(("init",), 0), (("status",), 1), (("status", "--bogus"), 2)],
    ids=["success", "fedweave-error", "usage-error"],
)
def test_exit_status(tmp_path, argv, code):
    child = fedweave_child("-w", str(tmp_path), *argv)
    assert child.returncode == code
    if code == 0:
        assert (child.stdout, child.stderr) == (f"initialised {tmp_path}\n", "")
    elif code == 1:
        assert (child.stdout, child.stderr) == (
            "", f"cli: {tmp_path} is not an initialised workspace (run `fedweave init`)\n")
    else:
        assert child.stdout == ""
        assert child.stderr.startswith("usage: fedweave ")
        assert child.stderr.endswith("\nfedweave: error: unrecognized arguments: --bogus\n")


def test_deploy_and_status_print_one_hash(tmp_path, capsys):
    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                  "--mem", "8192", "--disk", "102400", "-n", "4")):
        assert run_command(["-w", str(tmp_path), *argv]) == 0, argv
    capsys.readouterr()
    deploy = fedweave_child("-w", str(tmp_path), "deploy", str(tmp_path / "moodle-bundle.yaml"))
    assert (deploy.returncode, deploy.stderr) == (0, "")
    printed = [line.removeprefix("state hash: ") for line in deploy.stdout.splitlines()
               if line.startswith("state hash: ")]
    # ``--work`` is an abbreviation, parsed by the full argparse tree; ``-w`` takes the plain path.
    full, plain = (fedweave_child(flag, str(tmp_path), "status", "--format", "json")
                   for flag in ("--work", "-w"))
    assert (full.returncode, full.stderr, full.stdout) == (
        plain.returncode, plain.stderr, plain.stdout)
    assert (plain.returncode, plain.stderr) == (0, "")
    status = json.loads(plain.stdout)
    assert plain.stdout == json.dumps(status, indent=2, sort_keys=True) + "\n"
    assert [status["state_hash"]] == printed


def test_a_date_option_is_one_line_without_a_traceback(tmp_path, capsys):
    """A hand-written ``model.yaml`` holding a YAML date as an option
    value: ``fedweave status`` exits 1 with one line naming the option."""
    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                  "--mem", "8192", "--disk", "102400", "-n", "4"),
                 ("deploy", str(tmp_path / "moodle-bundle.yaml"))):
        assert run_command(["-w", str(tmp_path), *argv]) == 0, argv
    capsys.readouterr()
    model = tmp_path / "model.yaml"
    doc = json.loads(model.read_bytes())
    doc["model"]["applications"]["moodle"]["config"]["site_name"] = datetime.date(2017, 1, 1)
    model.write_text(yaml.safe_dump(doc))
    child = fedweave_child("-w", str(tmp_path), "status")
    assert (child.returncode, child.stdout) == (1, "")
    assert "Traceback" not in child.stderr
    assert child.stderr == (
        "cli: malformed model document: applications['moodle']['config']['site_name'] must be "
        "a string, an integer, a boolean or a float, not a date\n")


@pytest.mark.parametrize("after", ["write", "unsealed-status"])
def test_a_killed_holder_never_blocks_the_next_command(tmp_path, capsys, after):
    """A ``deploy`` reading its bundle from a pipe no one writes holds the
    lock until it is killed.  Meanwhile a write fails at once, naming it,
    and a sealed status answers without the lock.  Killed by SIGKILL, it
    leaves its lock file, which locks nothing: the next write, or an
    unsealed status, succeeds, and leaves no lock file."""
    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                  "--mem", "8192", "--disk", "102400", "-n", "4"),
                 ("deploy", str(tmp_path / "moodle-bundle.yaml"))):
        assert run_command(["-w", str(tmp_path), *argv]) == 0, argv
    capsys.readouterr()
    sealed = fedweave_child("-w", str(tmp_path), "status", "--format", "json")
    assert (sealed.returncode, sealed.stderr) == (0, "")
    lock, bundle = tmp_path / cli.LOCK_FILE, tmp_path / "bundle-pipe"
    os.mkfifo(bundle)
    holder = fedweave_child("-w", str(tmp_path), "deploy", str(bundle), run=subprocess.Popen,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not (lock.exists() and lock.read_text().startswith(f"{holder.pid} ")):
            assert holder.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        started = lock.read_text().split()[1]
        write = fedweave_child("-w", str(tmp_path), "config", "moodle", "site_name=X")
        assert (write.returncode, write.stdout, write.stderr) == (
            1, "", f"cli: workspace {tmp_path} is locked by another invocation: "
                   f"pid {holder.pid}, started {started}\n")
        assert fedweave_child("-w", str(tmp_path), "status", "--format", "json").stdout == (
            sealed.stdout)
    finally:
        holder.kill()
        holder.wait()
    assert holder.returncode == -signal.SIGKILL
    assert lock.read_text().startswith(f"{holder.pid} ")

    if after == "write":
        write = fedweave_child("-w", str(tmp_path), "config", "moodle", "site_name=X")
        assert (write.returncode, write.stderr) == (0, "")
        assert write.stdout.endswith("\n") and "state hash: " in write.stdout
    else:
        (tmp_path / cli.SEAL_FILE).unlink()
        unsealed = fedweave_child("-w", str(tmp_path), "status", "--format", "json")
        assert (unsealed.returncode, unsealed.stdout, unsealed.stderr) == (0, sealed.stdout, "")
    assert not lock.exists()

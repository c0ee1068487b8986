"""Commands run side by side on one workspace.

A command holds the workspace lock, an ``flock`` on ``.fedweave-lock``,
from before it loads anything until it has written its derived files; a
write that finds it held fails at once.  A ``status`` that the seal
answers takes no lock, so it never fails on one and never makes a write
fail.  One that the seal cannot answer polls the seal and the lock for up
to ``cli.STATUS_LOCK_WAIT`` seconds.  Either way it prints the status of
one committed state: the state from before or from after any write that
runs beside it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from fedweave import cli, statefile
from fedweave.cli import SEAL_FILE, run_command
from test_entry_point import fedweave_child
from test_statefile import deployed  # noqa: F401 (a fixture)

JSON_STATUS = ("status", "--format", "json")


def _quiet(root: Path, *argv: str) -> tuple[int, str, str]:
    """Run one command in this process, returning what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(["-w", str(root), *argv])
    return code, out.getvalue(), err.getvalue()


def _paused_writer(root: Path, argv: tuple[str, ...], at: int) -> tuple[int, int, int]:
    """Fork a child that runs ``argv`` and pauses before the ``at``-th of
    its ``statefile.commit``, its renames and its seal write, in that
    order.  Returns the child's pid, a pipe end that reads a byte once the
    child has paused, and one that lets it go on when written to."""
    paused_r, paused_w = os.pipe()
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            count = itertools.count(1)

            def pausing(real, pauses=lambda *args: True):
                def call(*args):
                    if pauses(*args) and next(count) == at:
                        os.write(paused_w, b".")
                        os.read(go_r, 1)
                    return real(*args)
                return call

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(statefile, "commit", pausing(statefile.commit))
                patch.setattr(os, "replace", pausing(os.replace))
                patch.setattr(statefile, "write_derived", pausing(
                    statefile.write_derived, lambda path, *_: path.name == SEAL_FILE))
                code = _quiet(root, *argv)[0]
        finally:
            os._exit(code)
    os.close(paused_w)
    os.close(go_r)
    return pid, paused_r, go_w


def _exit_code(pid: int) -> int:
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.parametrize("at", [1, 2, 3, 4, 5],
                         ids=["before-commit", "rename-1", "rename-2", "rename-3", "seal"])
def test_status_beside_a_paused_writer_prints_the_old_or_the_new_status(
    deployed, tmp_path, tmp_path_factory, monkeypatch, at  # noqa: F811
):
    """``add-unit`` on a model placed on a region and charging a project
    commits three files, with a record, and then seals the new status.
    Paused before its commit, it leaves the seal current, and a status
    answers from it at once.  Paused at any later point, it leaves the
    seal stale or a commit unfinished while it holds the lock: a status
    polls until the writer goes on, and then prints the new status."""
    command = ("add-unit", "moodle")
    old = _quiet(tmp_path, *JSON_STATUS)
    twin = tmp_path_factory.mktemp("twin")
    shutil.copytree(tmp_path, twin, dirs_exist_ok=True)
    assert _quiet(twin, *command)[0] == 0
    new = _quiet(twin, *JSON_STATUS)
    assert old[0] == new[0] == 0 and old != new

    pid, paused, go = _paused_writer(tmp_path, command, at)
    polled = threading.Event()
    sleep = time.sleep
    monkeypatch.setattr(time, "sleep", lambda seconds: polled.set() or sleep(seconds))
    try:
        assert os.read(paused, 1) == b"."
        printed = []
        status = threading.Thread(target=lambda: printed.append(_quiet(tmp_path, *JSON_STATUS)))
        status.start()
        if at == 1:
            status.join()
            assert printed == [old] and not polled.is_set()
        else:
            assert polled.wait(cli.STATUS_LOCK_WAIT)
        os.write(go, b".")
        status.join()
    finally:
        os.close(paused)
        os.close(go)
        assert _exit_code(pid) == 0
    assert printed == [old if at == 1 else new]
    assert _quiet(tmp_path, *JSON_STATUS) == new
    assert not (tmp_path / ".fedweave-lock").exists()


def _reader(root: Path, stop: Path, result: Path) -> int:
    """Fork a child that runs ``status --format json`` until ``stop``
    exists, then writes to ``result`` how many it ran, the errors of those
    that failed and the distinct texts the others printed."""
    pid = os.fork()
    if pid == 0:
        try:
            reads, failed, printed = 0, [], set()
            while not stop.exists():
                code, out, err = _quiet(root, *JSON_STATUS)
                reads += 1
                if code == 0:
                    printed.add(out)
                else:
                    failed.append(err)
            result.write_text(json.dumps([reads, failed, sorted(printed)]))
        finally:
            os._exit(0)
    return pid


def test_sealed_reads_beside_writes_never_fail(deployed, tmp_path, tmp_path_factory):  # noqa: F811
    """Two reader processes run sealed statuses while writes run one after
    another, each in a fresh ``fedweave`` process as automation runs them.
    No read and no write fails, and every status printed is the sealed
    status of a committed state."""
    scratch = tmp_path_factory.mktemp("readers")
    seal = tmp_path / SEAL_FILE
    def sealed_text() -> str:
        return statefile.read_derived(seal, lambda sources: True).decode("ascii") + "\n"

    committed = {sealed_text()}
    readers = [_reader(tmp_path, scratch / "stop", scratch / f"reader-{n}") for n in range(2)]
    try:
        for n in range(8):
            write = fedweave_child("-w", str(tmp_path), "config", "moodle", f"site_name=site-{n}")
            assert (write.returncode, write.stderr) == (0, ""), n
            committed.add(sealed_text())
    finally:
        (scratch / "stop").touch()
        assert [_exit_code(pid) for pid in readers] == [0, 0]
    assert len(committed) == 9
    for n in range(2):
        reads, failed, printed = json.loads((scratch / f"reader-{n}").read_text())
        assert failed == [] and reads > 0
        assert set(printed) <= committed
    assert not (tmp_path / ".fedweave-lock").exists()

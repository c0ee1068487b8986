"""The workspace state format and how it reaches disk.

State files are compact JSON under their historic ``.yaml`` names;
workspaces written as YAML still load, and a command commits the files it
changed as one set, so a commit that fails or crashes part-way leaves
every file old or every file new, and no file it did not change is
rewritten.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil

import pytest
import yaml

from fedweave import statefile
from fedweave.cli import run_command

STATE_FILES = ("model.yaml", "inventory.yaml", "federation.yaml", "projects.yaml")
ENDPOINTS = (
    "compute=https://cloud.garr.it:8774/v2.1",
    "volume=https://cloud.garr.it:8776/v3",
    "image=https://cloud.garr.it:9292",
)


@pytest.fixture
def deployed(tmp_path, capsys):
    """A workspace with the demo bundle deployed to a production region
    and charged to a project, so that all four state files exist."""

    def invoke(*argv: str, root=tmp_path) -> tuple[int, str, str]:
        code = run_command(["-w", str(root), *argv])
        out, err = capsys.readouterr()
        return code, out, err

    for argv in (
        ("init", "--demo"),
        ("quota", "create", "garr"),
        ("quota", "create", "garr/cloud"),
        ("quota", "set", "garr", "vcpus=1000", "ram=1048576", "disk=10000", "instances=1000"),
        ("quota", "set", "cloud", "vcpus=100", "ram=262144", "disk=1000", "instances=100"),
        ("region", "register", "garr-pa", *ENDPOINTS),
        ("region", "enlist", "garr-pa", "--cores", "4", "--mem", "8192",
         "--disk", "102400", "-n", "6"),
        ("region", "validate", "garr-pa"),
        ("deploy", "--region", "garr-pa", "--project", "cloud",
         str(tmp_path / "moodle-bundle.yaml")),
    ):
        code, _, err = invoke(*argv)
        assert code == 0, (argv, err)
    return invoke


def _hash(out: str) -> str:
    """The hash that ``status`` or a write command printed last."""
    return [line.split()[-1] for line in out.splitlines() if line.startswith("state hash")][-1]


def _docs(root: pathlib.Path) -> dict:
    return {name: statefile.load((root / name).read_text()) for name in STATE_FILES}


class TestFormat:
    def test_state_files_are_compact_json(self, deployed, tmp_path):
        for name in STATE_FILES:
            text = (tmp_path / name).read_text()
            doc = json.loads(text)
            assert isinstance(doc, dict) and doc, name
            assert statefile.dump(doc) == text
            assert statefile.load(statefile.dump(doc)) == doc

    def test_yaml_workspace_loads_and_is_rewritten_as_json(self, deployed, tmp_path):
        code, out, _ = deployed("status")
        assert code == 0
        expected = _hash(out)
        # The format earlier versions wrote.
        for name in STATE_FILES:
            path = tmp_path / name
            path.write_text(yaml.safe_dump(json.loads(path.read_text()), sort_keys=False))
            with pytest.raises(ValueError):
                json.loads(path.read_text())

        code, out, err = deployed("status")
        assert code == 0, err
        assert _hash(out) == expected

        # converge saves the model, the region (federation) and the project
        # tree; the local inventory is saved by a machine command.
        code, out, err = deployed("converge")
        assert code == 0, err
        assert _hash(out) == expected
        assert deployed("machine", "add-zone", "garr-01", "az1")[0] == 0
        for name in STATE_FILES:
            json.loads((tmp_path / name).read_text())
        code, out, _ = deployed("status")
        assert _hash(out) == expected

    def test_truncated_model_is_an_operational_error(self, deployed, tmp_path):
        (tmp_path / "model.yaml").write_text('{"provider_ref": "garr-pa", "model": {')
        code, _, err = deployed("status")
        assert code == 1
        assert err.startswith("cli: malformed model document")

    @pytest.mark.parametrize("text", ["", "[1]"], ids=["empty", "list"])
    def test_model_that_is_not_a_mapping_is_an_operational_error(self, deployed, tmp_path, text):
        (tmp_path / "model.yaml").write_text(text)
        assert deployed("status") == (1, "", "cli: malformed model document: not a mapping\n")

    def test_load_rejects_text_that_is_neither(self):
        with pytest.raises(statefile.DecodeError):
            statefile.load('{"machines": [')
        assert statefile.load("") is None
        assert statefile.load("machines: []\n") == {"machines": []}


class TestAtomicSave:
    def test_failed_write_mid_save_leaves_whole_files(
        self, deployed, tmp_path, tmp_path_factory, monkeypatch
    ):
        command = ("add-unit", "moodle")
        old = _docs(tmp_path)
        # The same command, uninterrupted, on a copy gives the new documents.
        twin = tmp_path_factory.mktemp("twin")
        shutil.copytree(tmp_path, twin, dirs_exist_ok=True)
        code, _, err = deployed(*command, root=twin)
        assert code == 0, err
        new = _docs(twin)

        original = pathlib.Path.write_text
        calls = []

        def failing_write_text(self, text, *args, **kwargs):
            calls.append(self.name)
            if len(calls) == 2:
                original(self, text[: len(text) // 2], *args, **kwargs)
                raise OSError(28, "No space left on device")
            return original(self, text, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", failing_write_text)
        code, _, err = deployed(*command)
        monkeypatch.undo()
        assert code == 1
        assert "No space left on device" in err
        assert len(calls) == 2

        # The write failed before the commit was recorded, so every file is old.
        assert _docs(tmp_path) == old != new
        assert _leftovers(tmp_path) == []


def _leftovers(root: pathlib.Path) -> list[str]:
    """Temporary files and commit records left in ``root``."""
    return sorted(p.name for p in root.iterdir()
                  if p.name.endswith(".tmp") or p.name == statefile.COMMIT_RECORD)


CRASHED = 70  # the exit status of a child that died mid-commit


class _Faults:
    """Stands in for ``os`` inside ``statefile`` and wraps ``Path.write_text``,
    counting the file operations of a commit: writes, fsyncs, renames and
    removals.  The ``at``-th calls ``interrupt`` instead of completing; a
    write first writes half its text, as a full disk would."""

    COUNTED = ("fsync", "replace", "unlink")

    def __init__(self, at: int = 0, interrupt=None) -> None:
        self.at = at
        self.interrupt = interrupt
        self.count = 0

    def _due(self) -> bool:
        self.count += 1
        return self.count == self.at

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.COUNTED:
            return real

        def operation(*args, **kwargs):
            if self._due():
                self.interrupt()
            return real(*args, **kwargs)

        return operation

    def install(self, monkeypatch) -> None:
        write_text = pathlib.Path.write_text

        def counted_write_text(path, text, *args, **kwargs):
            if self._due():
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                self.interrupt()
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(statefile, "os", self)
        monkeypatch.setattr(pathlib.Path, "write_text", counted_write_text)


def _out_of_space() -> None:
    raise OSError(28, "No space left on device")


def _crash(root: pathlib.Path, argv: tuple[str, ...], at: int) -> int:
    """Run ``argv`` in a forked child that dies by ``os._exit`` at the
    ``at``-th file operation of its commit; the child's exit status."""
    pid = os.fork()
    if pid == 0:
        try:
            with pytest.MonkeyPatch.context() as patch:
                _Faults(at, lambda: os._exit(CRASHED)).install(patch)
                run_command(["-w", str(root), *argv])
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


class TestCommit:
    COMMAND = ("add-unit", "moodle")

    @pytest.mark.parametrize("interruption", ["exception", "exit"])
    def test_interrupted_commit_leaves_all_old_or_all_new(
        self, deployed, tmp_path, tmp_path_factory, interruption
    ):
        old = (_docs(tmp_path), _hash(deployed("status")[1]))
        twin = tmp_path_factory.mktemp("twin")
        shutil.copytree(tmp_path, twin, dirs_exist_ok=True)
        with pytest.MonkeyPatch.context() as patch:
            counter = _Faults()
            counter.install(patch)
            code, out, err = deployed(*self.COMMAND, root=twin)
        assert code == 0, err
        new = (_docs(twin), _hash(out))
        assert [name for name in STATE_FILES if new[0][name] != old[0][name]] == [
            "model.yaml", "federation.yaml", "projects.yaml"
        ]

        for at in range(1, counter.count + 1):
            workspace = tmp_path_factory.mktemp(f"at-{at}")
            shutil.copytree(tmp_path, workspace, dirs_exist_ok=True)
            if interruption == "exception":
                with pytest.MonkeyPatch.context() as patch:
                    _Faults(at, _out_of_space).install(patch)
                    code, _, err = deployed(*self.COMMAND, root=workspace)
                assert code == 1 and "No space left on device" in err, (at, err)
            else:
                assert _crash(workspace, self.COMMAND, at) == CRASHED, at
                # The dead invocation still holds the lock; its error says to remove it.
                (workspace / ".fedweave-lock").unlink()
            code, out, err = deployed("status", root=workspace)
            assert code == 0, (at, err)
            assert (_docs(workspace), _hash(out)) in (old, new), at
            assert _leftovers(workspace) == [], at

    def test_config_rewrites_only_the_model(self, deployed, tmp_path):
        def files() -> dict:
            return {name: ((tmp_path / name).read_bytes(), (tmp_path / name).stat().st_ino,
                           (tmp_path / name).stat().st_mtime_ns) for name in STATE_FILES}

        before = files()
        code, out, err = deployed("config", "moodle", "site_name=Campus")
        assert code == 0, err
        assert "changed: site_name" in out
        after = files()
        assert [name for name in STATE_FILES if after[name] != before[name]] == ["model.yaml"]

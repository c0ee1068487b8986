"""The workspace state format and how it reaches disk.

State files are compact JSON under their historic ``.yaml`` names;
workspaces written as YAML still load, and every file is replaced
atomically, so a save that fails part-way leaves each file whole.
"""

from __future__ import annotations

import json
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

        after = _docs(tmp_path)
        for name in STATE_FILES:
            assert after[name] in (old[name], new[name]), name
        # The first file was replaced, the second one (which failed) was not.
        assert after["model.yaml"] == new["model.yaml"] != old["model.yaml"]
        assert after["federation.yaml"] == old["federation.yaml"] != new["federation.yaml"]
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == []

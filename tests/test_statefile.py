"""The workspace state format and how it reaches disk.

State files are compact JSON under their historic ``.yaml`` names;
workspaces written as YAML still load, and a command commits the files it
changed as one set, so a commit that fails or crashes part-way leaves
every file old or every file new, and no file it did not change is
rewritten.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import flatten_seen

from fedweave import cli, statefile
from fedweave.charms import load_charm
from fedweave.cli import CHARM_STORE_FILE, SEAL_FILE, Workspace, run_command
from fedweave.engine import checkpoint, load_checkpoint

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


def _naming(sources: list):
    """A ``read_derived`` test that the file names exactly ``sources``."""
    return lambda recorded: recorded == sources


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

    @pytest.mark.parametrize(
        ("text", "problem", "line", "column"),
        [
            ("a: 1\na: 2\n", "duplicate key 'a'", 2, 1),
            ("a: [1\n", "expected ',' or ']', but got '<stream end>'", 2, 1),
            ("a: 1\nb: x\x01\n", "unacceptable character #x0001: special characters are not allowed",
             2, 5),
            ("a: 2020-13-01\n", "month must be in 1..12", None, None),
            ("a: " + "[" * 3000, "maximum recursion depth exceeded", None, None),
        ],
        ids=["duplicate-key", "syntax", "control-character", "impossible-date", "deep-nesting"],
    )
    def test_decode_error_is_one_line_with_its_position(self, text, problem, line, column):
        with pytest.raises(statefile.DecodeError) as err:
            statefile.load(text)
        assert err.value.problem.startswith(problem)
        assert (err.value.line, err.value.column) == (line, column)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        ("data", "problem", "line", "column"),
        [
            (b"a: 1\n# \xc3\xa9\xff\n", "byte 0xff is not UTF-8: invalid start byte", 2, 4),
            (b"\xe2\x82", "byte 0xe2 is not UTF-8: unexpected end of data", 1, 1),
        ],
        ids=["after-a-two-byte-character", "cut-short"],
    )
    def test_bytes_that_are_not_utf8_are_a_decode_error(self, data, problem, line, column):
        for read in (statefile.load, statefile.load_yaml):
            with pytest.raises(statefile.DecodeError) as err:
                read(data)
            assert (err.value.problem, err.value.line, err.value.column) == (problem, line, column)
        assert statefile.load("a: é\n".encode()) == {"a": "é"}

    def test_load_rejects_text_that_is_neither(self):
        with pytest.raises(statefile.DecodeError):
            statefile.load('{"machines": [')
        assert statefile.load("") is None
        assert statefile.load("machines: []\n") == {"machines": []}

    def test_derived_file_reads_back_only_as_written(self, tmp_path):
        """A derived file gives back its value's bytes for the key it was
        written for, whatever pieces its value was written in, and reads as
        absent when missing, for another key, cut short anywhere, or with
        any one byte changed."""
        path = tmp_path / "derived.json"
        sources = [["a.yaml", "0" * 64], ["b.yaml", "f" * 64]]
        value = {"text": "é\u2028", "numbers": [1, -0.0, 1e300, True, None],
                 "order": {"z": 1, "a": 2}}
        encoded = json.dumps(value, separators=(",", ":")).encode("utf-8")
        assert statefile.read_derived(path, _naming(sources)) is None
        statefile.write_derived(path, sources, encoded)
        data = path.read_bytes()
        doc = json.loads(data)
        assert list(doc) == ["format", "version", "sources", "value", "check"]
        assert doc["check"] == hashlib.sha256(
            data[:data.rindex(b',"check":')] + b"}").hexdigest()
        statefile.write_derived(path, sources, encoded[:5], encoded[5:40], b"", encoded[40:])
        assert path.read_bytes() == data
        back = statefile.read_derived(path, _naming(sources))
        assert back == encoded
        back = json.loads(back)
        assert back == value and list(back["order"]) == ["z", "a"]
        for other in (sources[:1], [*sources, ["c.yaml", "1" * 64]], [["a.yaml", "1" * 64]]):
            assert statefile.read_derived(path, _naming(other)) is None, other
        for end in range(len(data)):
            path.write_bytes(data[:end])
            assert statefile.read_derived(path, _naming(sources)) is None, end
        for index in range(len(data)):
            path.write_bytes(data[:index] + bytes([data[index] ^ 1]) + data[index + 1:])
            assert statefile.read_derived(path, _naming(sources)) is None, index


# A workspace written before ``seen`` was grouped: SCALED_BUNDLE deployed
# with ``--budget 12`` onto four machines, two events still queued.  Its
# ``status`` hash, and the hash ``converge`` reached from it, as that
# version printed them.
FLAT_SEEN = pathlib.Path(__file__).parent / "data" / "flat-seen"
FLAT_SEEN_HASH = "7f9b80987d5977c3db8518a5f9c983e00a1c9e0d8ef806d6d45d65df44022cdc"
FLAT_SEEN_CONVERGED_HASH = "423ab3c6e76708dcb05ad13891cfbcf7bb16f781abd9dda79e345a161710d5e1"
# The SHA-256 of the ``model.yaml`` text this version writes for the
# loaded workspace, and of the one ``converge`` writes, as the version
# that wrote them through ``json.dumps`` of a checkpoint wrote them.
FLAT_SEEN_TEXT_SHA256 = "50e86aa64d1ab943ee64af59e653170395e59e9aa1461a27092bf3095fccd191"
FLAT_SEEN_CONVERGED_TEXT_SHA256 = "ee5d35f0ca7b136437e174bd096cdc8b950e45e625ee62e2b9ce02a66e9176e5"


class TestFlatSeen:
    @pytest.fixture
    def legacy(self, tmp_path, capsys):
        def invoke(*argv: str) -> tuple[int, str, str]:
            code = run_command(["-w", str(tmp_path), *argv])
            out, err = capsys.readouterr()
            return code, out, err

        assert invoke("init", "--demo")[0] == 0
        for name in ("model.yaml", "inventory.yaml"):
            shutil.copyfile(FLAT_SEEN / name, tmp_path / name)
        return invoke

    def test_flat_seen_loads_unchanged(self, legacy, tmp_path):
        def files() -> dict[str, bytes]:
            return {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}

        before = files()
        units = json.loads(before["model.yaml"])["model"]["units"]
        code, out, err = legacy("status")
        assert code == 0, err
        assert _hash(out) == FLAT_SEEN_HASH
        assert files() == before  # a read writes no file: no model, seal or compiled store
        model = Workspace(tmp_path).load_model()
        assert {unit_id: flatten_seen(unit.seen) for unit_id, unit in model.units.items()} == {
            unit_id: {tuple(entry) for entry in body["seen"]} for unit_id, body in units.items()
        }

    def test_queued_events_load_from_objects_and_save_as_lists(self, legacy, tmp_path):
        queue = json.loads((tmp_path / "model.yaml").read_bytes())["model"]["queue"]
        model = Workspace(tmp_path).load_model()
        doc = checkpoint(model, include_inventory=False)
        assert doc["queue"] == [[e["kind"], e["name"], e["target"], e["payload"], e["remote"]]
                                for e in queue]
        resumed = load_checkpoint(json.loads(json.dumps(doc)), model.store,
                                  inventory=model.inventory)
        assert list(resumed.event_queue) == list(model.event_queue)

    def test_converge_rewrites_flat_seen_grouped(self, legacy, tmp_path):
        code, out, err = legacy("converge")
        assert code == 0, err
        assert _hash(out) == FLAT_SEEN_CONVERGED_HASH
        units = json.loads((tmp_path / "model.yaml").read_text())["model"]["units"]
        for body in units.values():
            # [kind, name, payload, [remote, ...]] groups, strictly increasing by their first
            # three fields, each with its remotes strictly increasing.
            keys = [entry[:3] for entry in body["seen"]]
            assert keys and all(a < b for a, b in zip(keys, keys[1:])), keys
            for *_, remotes in body["seen"]:
                assert remotes and remotes == sorted(set(remotes)), remotes
        assert _hash(legacy("status")[1]) == FLAT_SEEN_CONVERGED_HASH

    def test_flat_seen_writes_the_grouped_text(self, legacy, tmp_path):
        """The loaded flat entries are written as groups, and the text is
        the text of the model's checkpoint, before and after ``converge``."""
        workspace = Workspace(tmp_path)
        model = workspace.load_model()
        text = workspace.save_model()
        assert hashlib.sha256(text.encode()).hexdigest() == FLAT_SEEN_TEXT_SHA256
        assert text == statefile.dump({"provider_ref": "local",
                                       "model": checkpoint(model, include_inventory=False)})
        assert legacy("converge")[0] == 0
        data = (tmp_path / "model.yaml").read_bytes()
        assert hashlib.sha256(data).hexdigest() == FLAT_SEEN_CONVERGED_TEXT_SHA256
        model = Workspace(tmp_path).load_model()
        assert data.decode() == statefile.dump(
            {"provider_ref": "local", "model": checkpoint(model, include_inventory=False)})

    def test_model_text_does_not_depend_on_the_hash_seed(self, tmp_path):
        script = (
            "import sys\n"
            "from fedweave.cli import run_command\n"
            "ws = sys.argv[1]\n"
            "for argv in (['init', '--demo'], ['machine', 'add-zone', 'garr-01', 'az1'],\n"
            "             ['machine', 'enlist', '--zone', 'garr-01/az1', '--cores', '4',\n"
            "              '--mem', '8192', '--disk', '102400', '-n', '6'],\n"
            "             ['deploy', ws + '/scaled-bundle.yaml'], ['add-unit', 'moodle', '-n', '3']):\n"
            "    assert run_command(['-w', ws, *argv]) == 0, argv\n"
        )
        source = os.path.dirname(os.path.dirname(statefile.__file__))
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        texts = []
        for seed in ("1", "2"):
            workspace = tmp_path / seed
            subprocess.run([sys.executable, "-c", script, str(workspace)], check=True,
                           capture_output=True,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            texts.append((workspace / "model.yaml").read_bytes())
        assert texts[0] == texts[1]
        haproxy = json.loads(texts[0])["model"]["units"]["haproxy/0"]
        assert ["relation-joined", "reverseproxy", "moodle:website haproxy:reverseproxy",
                ["moodle/0", "moodle/1", "moodle/2", "moodle/3"]] in haproxy["seen"]


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
    counting the file operations of a commit and of the derived files'
    writes after it: writes, fsyncs, renames and removals.  The ``at``-th
    calls ``interrupt`` instead of completing; a write first writes half its
    text, as a full disk would.  ``last`` names the last operation, and
    ``opened`` the file ``os.open`` opened last."""

    COUNTED = ("write", "fsync", "replace", "unlink")

    def __init__(self, at: int = 0, interrupt=None) -> None:
        self.at = at
        self.interrupt = interrupt
        self.count = 0
        self.last = None
        self.opened = None

    def _due(self) -> bool:
        self.count += 1
        return self.count == self.at

    def __getattr__(self, name):
        real = getattr(os, name)
        if name == "open":
            def opened(path, *args, **kwargs):
                self.opened = pathlib.Path(path).name
                return real(path, *args, **kwargs)
            return opened
        if name not in self.COUNTED:
            return real

        def operation(*args, **kwargs):
            self.last = name
            if self._due():
                if name == "write":
                    real(args[0], args[1][: len(args[1]) // 2])
                self.interrupt()
            return real(*args, **kwargs)

        return operation

    def install(self, monkeypatch) -> None:
        write_text = pathlib.Path.write_text

        def counted_write_text(path, text, *args, **kwargs):
            self.last = "write_text"
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
        outcomes = self._interrupt_everywhere(deployed, tmp_path, tmp_path_factory, interruption,
                                              ["model.yaml", "federation.yaml", "projects.yaml"])
        assert outcomes == {("old", "whole"), ("new", "whole")}

    @pytest.mark.parametrize("interruption", ["exception", "exit"])
    def test_interrupted_commit_with_compiled_store_leaves_all_old_or_all_new(
        self, deployed, tmp_path, tmp_path_factory, interruption
    ):
        """Without a compiled charm store, the command parses the charm
        files, commits the state files and only then writes the new store,
        before the seal.  Interrupted anywhere, it leaves the state files
        all old with no store, or all new with no store or the whole one."""
        (tmp_path / CHARM_STORE_FILE).unlink()
        outcomes = self._interrupt_everywhere(deployed, tmp_path, tmp_path_factory, interruption,
                                              ["model.yaml", "federation.yaml", "projects.yaml"])
        assert outcomes == {("old", "absent"), ("new", "absent"), ("new", "whole")}

    def _interrupt_everywhere(self, deployed, tmp_path, tmp_path_factory, interruption, changed):
        """End ``COMMAND`` at each file operation of its commit, which
        rewrites the ``changed`` state files, and of the derived files'
        writes after it.  Check that every state file is then old or every
        one new, and that the compiled charm store either reads as absent
        or is the whole store of the uninterrupted command.  Returns which
        of those each interruption left."""

        def snapshot(root, out) -> tuple:
            files = {name: (root / name).read_bytes() for name in STATE_FILES
                     if (root / name).exists()}
            return files, _hash(out)

        def store(root) -> str:
            path = root / CHARM_STORE_FILE
            if path.exists() and path.read_bytes() == whole:
                return "whole"
            assert statefile.read_derived(path, _naming(json.loads(whole)["sources"])) is None
            return "absent"

        old = snapshot(tmp_path, deployed("status")[1])
        twin = tmp_path_factory.mktemp("twin")
        shutil.copytree(tmp_path, twin, dirs_exist_ok=True)
        with pytest.MonkeyPatch.context() as patch:
            counter = _Faults()
            counter.install(patch)
            code, out, err = deployed(*self.COMMAND, root=twin)
        assert code == 0, err
        new = snapshot(twin, out)
        whole = (twin / CHARM_STORE_FILE).read_bytes()
        assert sorted(name for name in {*old[0], *new[0]}
                      if old[0].get(name) != new[0].get(name)) == sorted(changed)
        # The last operation is the seal's in-place write, after the commit.
        assert (counter.last, counter.opened) == ("write", SEAL_FILE)

        outcomes = set()
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
            code, out, err = deployed("status", root=workspace)
            assert code == 0, (at, err)
            state = snapshot(workspace, out)
            assert state in (old, new), at
            assert _leftovers(workspace) == [], at
            outcomes.add(("old" if state == old else "new", store(workspace)))
        # Cut short at the last operation, the seal is no seal: status
        # recomputed the new state's hash.
        seal = (workspace / SEAL_FILE).read_bytes()
        assert seal and snapshot(workspace, out) == new
        assert seal != (twin / SEAL_FILE).read_bytes()
        return outcomes

    def test_record_naming_the_compiled_store_is_finished(
        self, deployed, tmp_path, tmp_path_factory, capsys
    ):
        """A commit record as earlier versions wrote it, naming the compiled
        charm store with the state files: the next invocation renames every
        file it names and leaves no temporary file.  The store, in its old
        layout, reads as absent, so the next write parses the charm files
        and writes the store anew."""
        twin = tmp_path_factory.mktemp("twin")
        shutil.copytree(tmp_path, twin, dirs_exist_ok=True)
        code, out, err = deployed(*self.COMMAND, root=twin)
        assert code == 0, err
        committed = ["model.yaml", "federation.yaml", "projects.yaml"]
        for name in committed:
            (tmp_path / f".{name}.tmp").write_bytes((twin / name).read_bytes())
        (tmp_path / f".{CHARM_STORE_FILE}.tmp").write_text(
            '{"format":1,"version":"0.1.0","digest":"%s","charms":[]}' % ("0" * 64))
        (tmp_path / statefile.COMMIT_RECORD).write_text(
            json.dumps(sorted([*committed, CHARM_STORE_FILE])))

        code, status, err = deployed("status")
        assert code == 0, err
        assert _hash(status) == _hash(out)
        assert _docs(tmp_path) == _docs(twin)
        assert _leftovers(tmp_path) == []
        parsed = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "load_charm", lambda text: parsed.append(text) or load_charm(text))
            code, _, err = deployed("config", "moodle", "site_name=Campus")
        assert code == 0, err
        assert len(parsed) == 3
        assert json.loads((tmp_path / CHARM_STORE_FILE).read_bytes())["sources"]

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
        assert _leftovers(tmp_path) == []


# ---------------------------------------------------------------------------
# A state document of the wrong shape fails with one line


def _machine(index: int, **fields):
    """A mutation setting ``fields`` of the inventory's ``index``-th machine,
    deleting each whose value is ``...``."""
    def mutate(doc: dict) -> None:
        body = doc["machines"][index]
        for name, value in fields.items():
            if value is ...:
                del body[name]
            else:
                body[name] = value
    return mutate


def _container(doc: dict) -> None:
    next(body for body in doc["machines"] if "parent" in body)["reserved"] = 5


def _set(path: tuple, value):
    def mutate(doc: dict) -> None:
        for key in path[:-1]:
            doc = doc[key]
        if value is ...:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return mutate


def _seen_group(index: int, rewrite):
    """A mutation replacing moodle/0's ``index``-th seen group by
    ``rewrite(group)``."""
    def mutate(doc: dict) -> None:
        seen = doc["model"]["units"]["moodle/0"]["seen"]
        seen[index] = rewrite(seen[index])
    return mutate


ADD_UNIT = ("add-unit", "moodle")
MALFORMED = {
    # name: (file, mutation, a command that loads the file and would write)
    "machine-no-region": ("inventory.yaml", _machine(1, region=...), ADD_UNIT),
    "machine-no-cores": ("inventory.yaml", _machine(1, cores=...), ADD_UNIT),
    "cores-not-a-number": ("inventory.yaml", _machine(1, cores="x"), ADD_UNIT),
    "cores-a-list": ("inventory.yaml", _machine(1, cores=[1]), ADD_UNIT),
    "cores-zero": ("inventory.yaml", _machine(1, cores=0), ADD_UNIT),
    "disk-negative": ("inventory.yaml", _machine(2, disk=-1), ADD_UNIT),
    "reserved-a-number": ("inventory.yaml", _container, ADD_UNIT),
    "zone-no-region": ("inventory.yaml", _set(("zones", 0, "region"), ...), ADD_UNIT),
    "id-null": ("inventory.yaml", _machine(3, id=None), ADD_UNIT),
    "id-boolean": ("inventory.yaml", _machine(3, id=True), ADD_UNIT),
    "id-list": ("inventory.yaml", _machine(3, id=[3]), ADD_UNIT),
    "id-mapping": ("inventory.yaml", _machine(3, id={"3": 3}), ADD_UNIT),
    "properties-a-string": ("inventory.yaml", _machine(1, properties="ssd"), ADD_UNIT),
    "containers-a-string": ("inventory.yaml", _machine(1, containers="0/lxd/0"), ADD_UNIT),
    "nodes-a-number": ("projects.yaml", _set(("nodes",), 5), ("quota", "create", "other")),
    "nodes-of-numbers": ("projects.yaml", _set(("nodes",), [1]), ("quota", "create", "other")),
    "nodes-a-mapping": ("projects.yaml", _set(("nodes",), {"x": {}}),
                        ("quota", "create", "other")),
    "roles-a-string": ("projects.yaml", _set(("nodes", 0, "roles"), {"alice": "admin"}),
                       ("quota", "create", "other")),
    "amount-a-fraction": ("projects.yaml", _set(("nodes", 0, "quota", "vcpus"), 1.9),
                          ("quota", "create", "other")),
    "amount-a-boolean": ("projects.yaml", _set(("nodes", 0, "usage", "ram"), True),
                         ("quota", "create", "other")),
    "region-a-number": ("federation.yaml", _set(("regions", "garr-pa"), 5),
                        ("identity", "map", "alice@garr.it")),
    "unit-no-application": ("model.yaml", _set(("model", "units", "moodle/0", "application"),
                                                ...), ADD_UNIT),
    "seen-a-number": ("model.yaml", _set(("model", "units", "moodle/0", "seen"), 5), ADD_UNIT),
    "seen-group-of-three-fields": ("model.yaml", _seen_group(0, lambda group: group[:3]),
                                   ADD_UNIT),
    "seen-remotes-a-number": ("model.yaml", _seen_group(0, lambda group: [*group[:3], 5]),
                              ADD_UNIT),
}
WHAT = {"inventory.yaml": "provider: malformed inventory document: ",
        "projects.yaml": "quota: malformed project document: ",
        "federation.yaml": "federation: malformed federation document: ",
        "model.yaml": "cli: malformed model document: "}


@pytest.fixture
def local(tmp_path, capsys):
    """The demo bundle deployed on four local machines, with a project tree
    and a candidate region, so that all four state files exist."""

    def invoke(*argv: str) -> tuple[int, str, str]:
        code = run_command(["-w", str(tmp_path), *argv])
        out, err = capsys.readouterr()
        return code, out, err

    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
                  "--disk", "102400", "-n", "4"),
                 ("quota", "create", "garr"), ("region", "register", "garr-pa", *ENDPOINTS),
                 ("deploy", str(tmp_path / "moodle-bundle.yaml"))):
        code, _, err = invoke(*argv)
        assert code == 0, (argv, err)
    return invoke


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_document_fails_with_one_line(local, tmp_path, case):
    name, mutate, argv = MALFORMED[case]
    doc = json.loads((tmp_path / name).read_bytes())
    mutate(doc)
    (tmp_path / name).write_text(statefile.dump(doc))
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    code, out, err = local(*argv)
    assert (code, out) == (1, ""), err
    assert err.startswith(WHAT[name]) and err.count("\n") == 1, err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == files


# A fault in a seen group past the first is found by the unit's first step,
# or by the checkpoint, each of which checks every group; the load looks at
# the first alone.  The middle group is the first that a bisection over the
# groups compares with.
MALFORMED_LATER_SEEN = {
    "group-of-three-fields": lambda group: group[:3],
    "remotes-a-number": lambda group: [*group[:3], 5],
    "a-remote-a-number": lambda group: [*group[:3], [*group[3], 5]],
    "kind-a-number": lambda group: [5, *group[1:]],
}


@pytest.mark.parametrize("argv", [ADD_UNIT, ("config", "moodle", "site_name=X")],
                         ids=["add-unit", "config"])
@pytest.mark.parametrize("case", MALFORMED_LATER_SEEN)
def test_malformed_later_seen_group_fails_with_one_line(local, tmp_path, case, argv):
    doc = json.loads((tmp_path / "model.yaml").read_bytes())
    middle = len(doc["model"]["units"]["moodle/0"]["seen"]) // 2
    assert middle > 0
    _seen_group(middle, MALFORMED_LATER_SEEN[case])(doc)
    (tmp_path / "model.yaml").write_text(statefile.dump(doc))
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    code, out, err = local(*argv)
    assert (code, out) == (1, ""), err
    assert err == ("engine: seen of unit 'moodle/0' is not a list of "
                   "[kind, name, payload, [remote, ...]] groups\n"), err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == files


# ---------------------------------------------------------------------------
# A model field of a type the engine never writes is refused at the load

#: Both formats of ``status`` and two commands that would write.
REFUSING = (("status",), ("status", "--format", "json"), ("config", "moodle", "site_name=X"),
            ("converge",))
DATE = datetime.date(2017, 1, 1)
#: For each type ``load_checkpoint`` wants, values of other types.
WRONG = {
    str: [DATE, {"a": [1]}, [["x"]], 5, True, None, 1.5],
    int: [DATE, {"a": 1}, [1], "3", True, None, 3.0],
    bool: [DATE, {"a": True}, [True], "yes", 1, None],
    list: [DATE, {"a": []}, "x", 1, None],
    dict: [DATE, [{"a": 1}], "x", 1, None],
    "option": [DATE, {"b": 1, "a": 2}, [1, "a"], None],
    "project": [DATE, {"a": 1}, ["x"], 5, True],
}


def _model_fields(model: dict) -> list[tuple[tuple, object]]:
    """Every field of the engine-written ``model`` that ``load_checkpoint``
    checks, as its path in the model and the type it must have (a ``WRONG``
    key)."""
    fields = [(("generation",), int), (("strict_conflicts",), bool), (("project",), "project"),
              (("applications",), dict), (("units",), dict), (("relations",), dict),
              (("machines",), list), *((("machines", i), str) for i in range(len(model["machines"])))]
    for name, app in model["applications"].items():
        fields += [(("applications", name, key), kind) for key, kind in
                   (("charm", str), ("series", str), ("exposed", bool), ("unit_counter", int),
                    ("config", dict))]
        fields += [(("applications", name, "config", key), "option") for key in app["config"]]
    for unit_id, unit in model["units"].items():
        fields += [(("units", unit_id, key), kind) for key, kind in
                   (("application", str), ("machine", str), ("status", str), ("message", str),
                    ("leader", bool), ("states", list), ("open_ports", list))]
        fields += [(("units", unit_id, "states", i), str) for i in range(len(unit["states"]))]
        fields += [(("units", unit_id, "open_ports", i), int)
                   for i in range(len(unit["open_ports"]))]
    for relation_id, relation in model["relations"].items():
        fields += [(("relations", relation_id, key), kind) for key, kind in
                   (("provider", str), ("requirer", str), ("interface", str), ("data", dict))]
        for unit_id, bag in relation["data"].items():
            fields += [(("relations", relation_id, "data", unit_id), dict),
                       *((("relations", relation_id, "data", unit_id, key), str) for key in bag)]
    return fields


def _field_text(path: tuple) -> str:
    return path[0] + "".join(f"[{key!r}]" for key in path[1:])


def _tree_files(root: pathlib.Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def engine_written(tmp_path_factory) -> pathlib.Path:
    """The demo bundle deployed on four local machines, its ``status``
    sealed: a workspace as the engine writes it."""
    root = tmp_path_factory.mktemp("engine-written")
    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
                  "--disk", "102400", "-n", "4"),
                 ("deploy", str(root / "moodle-bundle.yaml"))):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["-w", str(root), *argv]) == 0, argv
    return root


def _refusals(root: pathlib.Path) -> list[tuple[int, str, str]]:
    """What each ``REFUSING`` command exits with and prints, each checked
    to leave every file of the workspace as it was."""
    files = _tree_files(root)
    results = []
    for argv in REFUSING:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["-w", str(root), *argv])
        results.append((code, out.getvalue(), err.getvalue()))
        assert _tree_files(root) == files, argv
    return results


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_field_of_another_type_is_refused(engine_written, data):
    """One field of an engine-written ``model.yaml``, drawn with a value
    of another type, or one mapping key drawn as a number or a date: every
    command that loads the model exits 1 with one line naming the field
    and changes no file."""
    with tempfile.TemporaryDirectory() as name:
        root = pathlib.Path(name) / "ws"
        shutil.copytree(engine_written, root)
        doc = json.loads((root / "model.yaml").read_bytes())
        model = doc["model"]
        path, kind = data.draw(st.sampled_from(_model_fields(model)))
        parent = model
        for key in path[:-1]:
            parent = parent[key]
        if type(parent[path[-1]]) is dict and data.draw(st.booleans()):
            # A key of a mapping of records or values, not a string.
            mapping = parent[path[-1]]
            old = data.draw(st.sampled_from(sorted(mapping))) if mapping else None
            assume(old is not None)
            mapping[data.draw(st.sampled_from([5, DATE]))] = mapping.pop(old)
            problem = f"{_field_text(path)} has a key that is not a string"
        else:
            parent[path[-1]] = data.draw(st.sampled_from(WRONG[kind]))
            problem = f"{_field_text(path)} must be "
        (root / "model.yaml").write_text(yaml.safe_dump(doc))
        for code, out, err in _refusals(root):
            assert (code, out) == (1, ""), err
            assert err.startswith(f"cli: malformed model document: {problem}"), err
            assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    ("name", "mutate", "line"),
    [("model.yaml", _set(("model", "applications", "moodle", "config", "site_name"), DATE),
      "cli: malformed model document: applications['moodle']['config']['site_name'] must be "
      "a string, an integer, a boolean or a float, not a date"),
     ("model.yaml", _set(("model", "units", "moodle/0", "status"), 5),
      "cli: malformed model document: units['moodle/0']['status'] must be a string, "
      "not an integer"),
     ("model.yaml", _set(("model", "applications", "moodle", "exposed"), "yes"),
      "cli: malformed model document: applications['moodle']['exposed'] must be a boolean, "
      "not a string"),
     ("inventory.yaml", _machine(0, properties=[1, "a"]),
      "provider: malformed inventory document: machine '0' has property 1, "
      "which is not a string"),
     ("model.yaml", _set(("model", "queue"), [[5, "x", "moodle/0", "", ""]]),
      "cli: malformed model document: queue[0][0] must be a string, not an integer"),
     ("model.yaml", _set(("model", "queue"), [["install", "", "moodle/0", "", 7]]),
      "cli: malformed model document: queue[0][4] must be a string, not an integer"),
     ("model.yaml", _set(("model", "queue"), [["install", "", "moodle/0", ""]]),
      "cli: malformed model document: queue[0] must hold 5 items, not 4"),
     ("model.yaml", _set(("model", "machine_charges"), {"0": {"vcpus": 1.5}}),
      "cli: malformed model document: machine_charges['0']['vcpus'] must be an integer, "
      "not a float")],
    ids=["date-option", "status-an-int", "exposed-a-string", "properties-mixed",
         "queue-kind-an-int", "queue-remote-an-int", "queue-entry-short", "charge-a-float"],
)
def test_reproduced_hand_written_values_are_refused(engine_written, tmp_path, name, mutate,
                                                    line):
    """Values that once ended ``status`` or a write in a traceback, or
    loaded as another value: a YAML date as an option, a number as a
    unit's status, a string as ``exposed``, a number among a machine's
    properties, a number in a queued event (``converge`` failed in its
    sort), and a fraction as a machine's charge (loaded as its floor)."""
    root = tmp_path / "ws"
    shutil.copytree(engine_written, root)
    doc = json.loads((root / name).read_bytes())
    mutate(doc)
    (root / name).write_text(yaml.safe_dump(doc))
    assert _refusals(root) == [(1, "", line + "\n")] * len(REFUSING)

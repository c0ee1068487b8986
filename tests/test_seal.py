"""The seal: ``.fedweave-seal.json`` holds the state hash that the last
command to change the model printed, with the SHA-256 of ``model.yaml``
and of the file holding the model's inventory as that command left them.

The seal is derived data.  ``status`` takes the hash from it only when it
names the very bytes ``status`` loaded, so with the seal, without it, or
with a stale or damaged one, every answer and every file is the same; and
the hash it holds is the one a model rebuilt from those files has, which
the round-trip properties at the end check on generated bundles.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedweave import engine, statefile
from fedweave.bundle import parse_bundle
from fedweave.cli import SEAL_FILE, Workspace, run_command
from fedweave.engine import (
    DeploymentError,
    Model,
    checkpoint,
    deploy_bundle,
    load_checkpoint,
    run_to_convergence,
    state_hash,
)
from test_compiled_store import _day2_commands, _files, _invoke, cached  # noqa: F401 (a fixture)
from test_plan import PROXY2_CHARM, _ample_pool, _deployed, _store_with_proxy2, demo_bundles
from test_statefile import ENDPOINTS

ENLIST = ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "2", "--mem", "4096",
          "--disk", "40960")


def _printed_hash(out: str) -> str | None:
    lines = [line for line in out.splitlines() if line.startswith("state hash: ")]
    return lines[-1].removeprefix("state hash: ") if lines else None


def _seal_verifies(root: Path) -> bool:
    ws = Workspace(root)
    ws.load_model()
    return ws.sealed_hash() is not None


@pytest.fixture
def digests(monkeypatch):
    """The number of state hashes ``status`` computes rather than takes from
    the seal."""
    calls = []
    real = engine._digest
    monkeypatch.setattr(engine, "_digest", lambda doc: calls.append(1) or real(doc))
    return calls


def _statuses(root: Path, capsys, digests) -> tuple[tuple[str, str], bool]:
    """Both formats of ``status`` with the seal as it is, after checking
    that they print the same bytes with the seal deleted and that neither
    writes a file; and whether the seal gave the hash."""
    seal = root / SEAL_FILE
    kept = seal.read_bytes() if seal.exists() else None
    files = _files(root)
    outputs = []
    for present in (True, False):
        if not present:
            seal.unlink(missing_ok=True)
        digests.clear()
        printed = []
        for argv in (("status",), ("status", "--format", "json")):
            code, out, err = _invoke(root, capsys, *argv)
            assert (code, err) == (0, ""), argv
            printed.append(out)
        outputs.append((tuple(printed), not digests))
        assert not seal.exists() or present, "a read wrote the seal"
    if kept is not None:
        seal.write_bytes(kept)
    assert _files(root) == files
    (with_seal, sealed), (without_seal, unsealed) = outputs
    assert with_seal == without_seal
    assert not unsealed
    return with_seal, sealed


# ---------------------------------------------------------------------------
# The seal never changes an answer


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_day2_sequence_answers_alike_with_and_without_the_seal(
    cached, capsys, monkeypatch, digests, seed
):
    """After every command of a seeded day-2 sequence, with an enlist
    every few commands: ``status`` prints the same bytes with the seal and
    without it, its hash is the hash of the model the workspace loads, and
    the seal gives that hash after each command that changed the model and
    stops giving it once ``machine enlist`` has rewritten the inventory."""
    monkeypatch.chdir(cached)  # the bundles are named relative to it
    commands = _day2_commands(random.Random(seed), 30)
    for index in range(3, len(commands), 7):
        commands[index] = ENLIST
    took_seal = 0
    for argv in commands:
        code, out, err = _invoke(cached, capsys, *argv)
        (text, json_text), sealed = _statuses(cached, capsys, digests)
        digest = json.loads(json_text)["state_hash"]
        assert text.startswith(f"state hash  {digest}\n")
        assert digest == state_hash(Workspace(cached).load_model()), argv
        printed = _printed_hash(out)
        if printed is not None:
            assert printed == digest, argv
            assert sealed, argv
        elif argv == ENLIST:
            assert (code, sealed) == (0, False), err
        took_seal += sealed
    assert took_seal


def test_identity_map_on_a_region_unseals(tmp_path, capsys, digests):
    """On a model placed on a region the inventory lives in
    ``federation.yaml``, so rewriting that file unseals the hash."""
    for argv in (("init", "--demo"), ("region", "register", "garr-pa", *ENDPOINTS),
                 ("region", "enlist", "garr-pa", "--cores", "4", "--mem", "8192",
                  "--disk", "102400", "-n", "6"),
                 ("region", "validate", "garr-pa"),
                 ("deploy", "--region", "garr-pa", str(tmp_path / "moodle-bundle.yaml"))):
        code, _, err = _invoke(tmp_path, capsys, *argv)
        assert code == 0, (argv, err)
    seal = json.loads((tmp_path / SEAL_FILE).read_bytes())
    assert [name for name, _ in seal["sources"]] == ["model.yaml", "federation.yaml"]
    (_, json_text), sealed = _statuses(tmp_path, capsys, digests)
    assert sealed
    code, _, err = _invoke(tmp_path, capsys, "identity", "map", "alice@garr.it")
    assert code == 0, err
    (_, after), sealed = _statuses(tmp_path, capsys, digests)
    assert (after, sealed) == (json_text, False)


def _edit_model(root: Path) -> None:
    path = root / "model.yaml"
    text = path.read_text()
    assert text.count('"site_name":"Moodle"') == 1
    path.write_text(text.replace('"site_name":"Moodle"', '"site_name":"Noodle"'))


def _edit_unheld_machine(root: Path) -> None:
    path = root / "inventory.yaml"
    text = path.read_text()
    start = text.index('{"id":"5",')
    cores = text.index('"cores":4', start) + len('"cores":')
    path.write_text(text[:cores] + "5" + text[cores + 1:])


def _edit_seal(**fields):
    """Edit fields of the seal in place, leaving every other byte as it is."""
    def edit(root: Path) -> None:
        path = root / SEAL_FILE
        path.write_text(json.dumps({**json.loads(path.read_bytes()), **fields},
                                   separators=(",", ":")))
    return edit


def _cut_seal(root: Path) -> None:
    path = root / SEAL_FILE
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garble_seal(root: Path) -> None:
    (root / SEAL_FILE).write_bytes(b"\xff\x00 not json {[")


TAMPERS = {
    "model-byte": _edit_model,
    "unheld-machine-byte": _edit_unheld_machine,
    "format": _edit_seal(format=2),
    "version": _edit_seal(version="0.0.0"),
    "cut-short": _cut_seal,
    "not-json": _garble_seal,
    "hash-edited": _edit_seal(value="0" * 64),
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_tampered_workspace_prints_the_recomputed_hash(cached, capsys, digests, tamper):
    assert _statuses(cached, capsys, digests)[1]
    TAMPERS[tamper](cached)
    (_, json_text), sealed = _statuses(cached, capsys, digests)
    assert not sealed
    assert json.loads(json_text)["state_hash"] == state_hash(Workspace(cached).load_model())


# ---------------------------------------------------------------------------
# The round trip the seal rests on


@settings(max_examples=40, deadline=None)
@given(demo_bundles(), st.integers(0, 60))
def test_resumed_deploy_keeps_the_live_hash(text, events):
    """A deploy stepped ``events`` times and resumed from its checkpoint,
    through the state-file text, has the live model's hash then and once
    both have converged."""
    store = _store_with_proxy2()
    live = Model(store, _ample_pool())
    try:
        deploy_bundle(live, parse_bundle(text))
    except DeploymentError:
        return
    for _ in range(events):
        if engine.step(live).event is None:
            break
    doc = statefile.load(statefile.dump(checkpoint(live)))
    resumed = load_checkpoint(doc, store)
    assert state_hash(resumed) == state_hash(live)
    assert run_to_convergence(resumed).converged and run_to_convergence(live).converged
    assert state_hash(resumed) == state_hash(live)


def _cli(root: Path, *argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run_command(["-w", str(root), *argv])
    return code, out.getvalue()


@settings(max_examples=20, deadline=None)
@given(demo_bundles())
def test_cli_deploy_prints_the_library_hash_and_status_keeps_it(text):
    """The bundle deployed through ``run_command`` onto the same pool
    prints the library deploy's hash, and ``status`` prints it too, from
    the seal and with the seal deleted."""
    try:
        library = state_hash(_deployed(_store_with_proxy2(), _ample_pool(), parse_bundle(text)))
    except DeploymentError:
        library = None
    with tempfile.TemporaryDirectory() as name:
        root = Path(name)
        for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                     *(("machine", "enlist", "--zone", "garr-01/az1", "--cores", "8",
                        "--mem", "16384", "--disk", "204800", "--series", series, "-n", "16")
                       for series in ("xenial", "bionic"))):
            assert _cli(root, *argv)[0] == 0, argv
        (root / "charms" / "proxy2.yaml").write_text(PROXY2_CHARM)
        (root / "bundle.yaml").write_text(text)
        code, out = _cli(root, "deploy", str(root / "bundle.yaml"))
        if library is None:
            assert code == 1, out
            return
        assert (code, _printed_hash(out)) == (0, library), out
        assert _seal_verifies(root)
        for _ in ("sealed", "unsealed"):
            code, out = _cli(root, "status", "--format", "json")
            assert (code, json.loads(out)["state_hash"]) == (0, library)
            (root / SEAL_FILE).unlink(missing_ok=True)

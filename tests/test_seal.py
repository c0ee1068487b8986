"""The seal: ``.fedweave-seal.json`` holds what ``status --format json``
prints of the model the last command to change it left: the text
``cli.status_text`` writes for its status snapshot, whose ``state_hash``
is the hash that command printed.  Its sources are every file
``load_model`` reads, with their SHA-256 as that command left them:
``model.yaml``, the file holding the model's inventory (``inventory.yaml``,
or ``federation.yaml`` for a model placed on a region), and
``projects.yaml`` when the model charges a project.  On the 600-unit
benchmark fleet the seal is about 385 KB, up from about 240 KB when it
held the compact canonical state; the benchmark's ``state_kb`` does not
count it.

The seal is derived data.  ``status`` answers from it, parsing no state
file, only when every file it names is byte for byte as the seal says: a
sealed ``status --format json`` prints the sealed text and parses
nothing, and a sealed plain ``status`` parses that text once.  So with
the seal, without it, or with a stale, damaged or older-layout one, every
answer, exit code and file is the same; and the state it holds is the one
a model rebuilt from those files has, which the round-trip properties at
the end check on generated bundles.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedweave import cli, engine, statefile
from fedweave.builtin import MOODLE_BUNDLE
from fedweave.bundle import parse_bundle
from fedweave.cli import SEAL_FILE, Workspace, run_command
from fedweave.federation import Federation
from fedweave.provider import Inventory
from fedweave.quota import ProjectTree
from fedweave.engine import (
    DeploymentError,
    Model,
    checkpoint,
    deploy_bundle,
    load_checkpoint,
    run_to_convergence,
    state_hash,
    status_snapshot,
)
from oracles import canonical_text_oracle
from test_compiled_store import _day2_commands, _files, _invoke, cached  # noqa: F401 (a fixture)
from test_plan import PROXY2_CHARM, _ample_pool, _deployed, _store_with_proxy2, demo_bundles
from test_statefile import ENDPOINTS

ENLIST = ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "2", "--mem", "4096",
          "--disk", "40960")


def _printed_hash(out: str) -> str | None:
    lines = [line for line in out.splitlines() if line.startswith("state hash: ")]
    return lines[-1].removeprefix("state hash: ") if lines else None


def _seal_verifies(root: Path) -> bool:
    return Workspace(root).sealed_status() is not None


@pytest.fixture
def digests(monkeypatch):
    """One entry per ``status`` snapshot built from a loaded model, that is,
    not from the seal."""
    calls = []
    real = engine._canonical_state
    monkeypatch.setattr(engine, "_canonical_state", lambda model: calls.append(1) or real(model))
    return calls


STATUSES = (("status",), ("status", "--format", "json"))


def _answers(root: Path, capsys, digests) -> tuple[tuple[tuple[int, str, str], ...], bool]:
    """The exit code, output and error of both formats of ``status`` with
    the seal as it is, after checking that they are the same with the seal
    deleted and that neither writes a file; and whether the seal answered
    every one."""
    seal = root / SEAL_FILE
    kept = seal.read_bytes() if seal.exists() else None
    files = _files(root)
    answers = []
    for present in (True, False):
        if not present:
            seal.unlink(missing_ok=True)
        digests.clear()
        results = []
        with pytest.MonkeyPatch.context() as patch:
            sealed = _counting_seal_answers(patch)
            for argv in STATUSES:
                results.append(_invoke(root, capsys, *argv))
        answers.append((tuple(results), len(sealed) == len(STATUSES)))
        assert len(sealed) + len(digests) <= len(STATUSES), "a status read the seal and the model"
        assert not seal.exists() or present, "a read wrote the seal"
    if kept is not None:
        seal.write_bytes(kept)
    assert _files(root) == files
    (with_seal, sealed), (without_seal, unsealed) = answers
    assert with_seal == without_seal
    assert not unsealed
    return with_seal, sealed


def _counting_seal_answers(patch) -> list:
    """One entry per ``status`` the seal answers, from now on."""
    answered = []
    real = Workspace.sealed_status

    def sealed_status(self):
        sealed = real(self)
        if sealed is not None:
            answered.append(1)
        return sealed

    patch.setattr(Workspace, "sealed_status", sealed_status)
    return answered


def _statuses(root: Path, capsys, digests) -> tuple[tuple[str, str], bool]:
    """What both formats of ``status`` print, each succeeding alike with
    the seal and without it; and whether the seal answered them."""
    answers, sealed = _answers(root, capsys, digests)
    for argv, (code, _, err) in zip(STATUSES, answers):
        assert (code, err) == (0, ""), argv
    return tuple(out for _, out, _ in answers), sealed


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
    _build(tmp_path, capsys, *REGION,
           ("deploy", "--region", "garr-pa", str(tmp_path / "moodle-bundle.yaml")))
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


def _edit_projects(root: Path) -> None:
    path = root / "projects.yaml"
    data = path.read_bytes()
    path.write_bytes(data[:7] + b"\xff" + data[8:])


def _old_layout_seal(root: Path) -> None:
    """The seal as written before it held the state: a whole derived file
    whose value is the bare hash, sealed to the model's and inventory's
    files."""
    path = root / SEAL_FILE
    doc = json.loads(path.read_bytes())
    statefile.write_derived(path, doc["sources"][:2],
                            json.dumps(doc["value"]["state_hash"]).encode())


def _state_layout_seal(root: Path) -> None:
    """The seal as written before it held the status text: a whole derived
    file, sealed to the same files, whose value is the generation, the
    hash and the canonical state, as compact JSON."""
    path = root / SEAL_FILE
    doc = json.loads(path.read_bytes())
    state = doc["value"]
    generation, digest = state.pop("generation"), state.pop("state_hash")
    value = {"generation": generation, "hash": digest, "state": state}
    statefile.write_derived(path, doc["sources"], json.dumps(value, separators=(",", ":")).encode())


def _edit_sealed_state(root: Path) -> None:
    path = root / SEAL_FILE
    data = path.read_bytes()
    assert data.count(b'"pending_events": 0') == 1
    path.write_bytes(data.replace(b'"pending_events": 0', b'"pending_events": 1'))


TAMPERS = {
    "model-byte": _edit_model,
    "unheld-machine-byte": _edit_unheld_machine,
    "format": _edit_seal(format=2),
    "version": _edit_seal(version="0.0.0"),
    "cut-short": _cut_seal,
    "not-json": _garble_seal,
    "hash-edited": _edit_seal(value={"generation": 0, "hash": "0" * 64, "state": {}}),
    "projects-byte": _edit_projects,
    "old-layout": _old_layout_seal,
    "state-layout": _state_layout_seal,
    "state-edited": _edit_sealed_state,
}


def _build(root: Path, capsys, *commands: tuple[str, ...]) -> Path:
    for argv in commands:
        code, _, err = _invoke(root, capsys, *argv)
        assert code == 0, (argv, err)
    return root


#: A demo workspace with twelve machines in a local zone and a project.
CHARGED = (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
           ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
            "--disk", "102400", "-n", "12"),
           ("quota", "create", "garr"), ("quota", "create", "garr/edu"),
           *(("quota", "set", path, "instances=40", "vcpus=200", "ram=1000000",
              "disk=10000000") for path in ("garr", "garr/edu")))

#: A demo workspace with a validated region of six machines.
REGION = (("init", "--demo"), ("region", "register", "garr-pa", *ENDPOINTS),
          ("region", "enlist", "garr-pa", "--cores", "4", "--mem", "8192",
           "--disk", "102400", "-n", "6"),
          ("region", "validate", "garr-pa"))


@pytest.fixture
def charged(tmp_path, capsys):
    """The moodle bundle deployed onto a local zone, charged to a project."""
    return _build(tmp_path, capsys, *CHARGED,
                  ("deploy", str(tmp_path / "moodle-bundle.yaml"), "--project", "garr/edu"))


@pytest.mark.parametrize("tamper", TAMPERS)
def test_tampered_workspace_prints_the_recomputed_hash(charged, capsys, digests, tamper):
    """Each tamper reads as no seal.  ``status`` then loads the model and
    prints what it prints without the seal: the recomputed hash, or, for a
    ``projects.yaml`` that no longer decodes, the same one-line error."""
    assert _statuses(charged, capsys, digests)[1]
    TAMPERS[tamper](charged)
    answers, sealed = _answers(charged, capsys, digests)
    assert not sealed
    if tamper == "projects-byte":
        for code, out, err in answers:
            assert (code, out) == (1, "")
            assert err.startswith("quota: malformed project document: byte 0xff is not UTF-8")
            assert err.count("\n") == 1
        return
    (code, _, _), (_, json_text, _) = answers
    assert code == 0
    assert json.loads(json_text)["state_hash"] == state_hash(Workspace(charged).load_model())


@pytest.mark.parametrize("placement", ["local-project", "region"])
def test_sealed_status_parses_no_state_file(tmp_path, capsys, monkeypatch, placement):
    """With the seal whole, ``status`` builds no model, inventory, project
    tree or federation, and prints the bytes it prints without the seal;
    ``status --format json`` also parses and renders no status: it runs
    with ``status_text`` and ``_json_text`` raising, and ``json.loads``
    refusing any text that holds a status."""
    if placement == "region":
        root = _build(tmp_path, capsys, *REGION,
                      ("deploy", "--region", "garr-pa", str(tmp_path / "moodle-bundle.yaml")))
    else:
        root = _build(tmp_path, capsys, *CHARGED,
                      ("deploy", str(tmp_path / "moodle-bundle.yaml"), "--project", "garr/edu"))
    seal = root / SEAL_FILE
    kept = seal.read_bytes()
    seal.unlink()
    unsealed = [_invoke(root, capsys, *argv) for argv in STATUSES]
    assert [code for code, _, _ in unsealed] == [0, 0]
    seal.write_bytes(kept)

    def refuse(*args, **kwargs):
        raise AssertionError("a sealed status parsed a state document or rendered a status")

    monkeypatch.setattr(engine, "load_checkpoint", refuse)
    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    for kind in (Inventory, ProjectTree, Federation):
        monkeypatch.setattr(kind, "load", classmethod(refuse))
    assert [_invoke(root, capsys, *argv) for argv in STATUSES] == unsealed

    loads = json.loads

    def loads_no_status(text, *args, **kwargs):
        if b'"applications"' in (text if isinstance(text, bytes) else text.encode()):
            refuse()
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads_no_status)
    monkeypatch.setattr(cli, "status_text", refuse)
    monkeypatch.setattr(cli, "_json_text", refuse)
    assert _invoke(root, capsys, *STATUSES[1]) == unsealed[1]


@pytest.mark.parametrize("where", ["option", "relation-data"])
def test_mapping_values_hash_whatever_their_key_order(charged, capsys, digests, where):
    """A hand-written mapping value in ``model.yaml``, as an option value
    or a relation-data value, hashes as the oracle's ``sort_keys`` text
    does whatever the order of its keys in the file, unsealed and then
    sealed by a ``converge``."""
    path = charged / "model.yaml"
    text = path.read_text()
    scalar = '"site_name":"Moodle"' if where == "option" else '"connected":"10.0.0.1"'
    assert text.count(scalar) == 1
    name = scalar.split(":")[0]
    hashes = []
    for mapping in ('{"b":1,"a":{"d":[{"f":2,"e":3}],"c":null}}',
                    '{"a":{"c":null,"d":[{"e":3,"f":2}]},"b":1}'):
        path.write_text(text.replace(scalar, f"{name}:{mapping}"))
        (_, json_text), sealed = _statuses(charged, capsys, digests)
        assert not sealed
        unsealed = json.loads(json_text)["state_hash"]
        code, out, err = _invoke(charged, capsys, "converge")
        assert code == 0, err
        (_, json_text), sealed = _statuses(charged, capsys, digests)
        assert sealed
        oracle = hashlib.sha256(canonical_text_oracle(Workspace(charged).load_model())).hexdigest()
        assert unsealed == _printed_hash(out) == json.loads(json_text)["state_hash"] == oracle
        hashes.append(oracle)
    assert hashes[0] == hashes[1]


def test_plain_tables_order_units_and_machines_by_number(tmp_path, capsys, digests):
    """The seal holds units and machines in the canonical text's order,
    where ``moodle/10`` sorts before ``moodle/2``; the tables order them
    by number whichever way ``status`` answers."""
    root = _build(tmp_path, capsys, *CHARGED[:3],
                  ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
                   "--disk", "102400", "-n", "2"),
                  ("deploy", str(tmp_path / "moodle-bundle.yaml")),
                  ("add-unit", "moodle", "-n", "10"))
    (text, _), sealed = _statuses(root, capsys, digests)
    assert sealed
    tables = [block.splitlines() for block in text.split("\n\n")]
    units = next(table for table in tables if table[0].startswith("UNIT "))
    machines = next(table for table in tables if table[0].startswith("MACHINE "))
    assert [row.split()[0] for row in units[1:]] == [
        *(f"moodle/{index}" for index in range(11)), "postgresql/0"]
    assert [row.split()[0] for row in machines[1:]] == [
        "0", "0/lxd/0", *(str(index) for index in range(1, 11))]


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
    assert _canonical_text(resumed) == _canonical_text(live)
    assert run_to_convergence(resumed).converged and run_to_convergence(live).converged
    assert state_hash(resumed) == state_hash(live)


def _canonical_text(model: Model) -> bytes:
    """The text the state hash is the SHA-256 of."""
    return engine._canonical_text(engine._canonical_state(model))


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
        state = json.loads((root / SEAL_FILE).read_bytes())["value"]
        assert state.pop("state_hash") == library
        assert state.pop("generation") == Workspace(root).load_model().generation
        assert (json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
                == canonical_text_oracle(Workspace(root).load_model()))
        for _ in ("sealed", "unsealed"):
            code, out = _cli(root, "status", "--format", "json")
            assert (code, json.loads(out)["state_hash"]) == (0, library)
            (root / SEAL_FILE).unlink(missing_ok=True)


@settings(max_examples=60, deadline=None)
@given(demo_bundles(), st.integers(0, 60))
def test_sealed_text_is_the_sort_keys_text(text, events):
    """At any point of a deploy, the text a model write hashes, built in
    key order, is the text ``json.dumps(sort_keys=True)`` writes for the
    canonical state, and the status text it seals is the text
    ``json.dumps(indent=2, sort_keys=True)`` writes for the snapshot."""
    live = Model(_store_with_proxy2(), _ample_pool())
    try:
        deploy_bundle(live, parse_bundle(text))
    except DeploymentError:
        return
    for _ in range(events):
        if engine.step(live).event is None:
            break
    hashed = _canonical_text(live)
    assert hashed == canonical_text_oracle(live)
    assert hashlib.sha256(hashed).hexdigest() == state_hash(live)
    snapshot = status_snapshot(live)
    assert cli.status_text(snapshot) == json.dumps(snapshot, indent=2, sort_keys=True)


#: Values no engine writes but a hand-written ``model.yaml`` can hold.
ODD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@functools.lru_cache(maxsize=1)
def _moodle_snapshot() -> dict:
    return status_snapshot(_deployed(_store_with_proxy2(), _ample_pool(),
                                     parse_bundle(MOODLE_BUNDLE)))


@st.composite
def odd_snapshots(draw) -> dict:
    """The moodle bundle's status snapshot with any of its fields, option
    values and relation-data values replaced by an odd value."""
    snapshot = copy.deepcopy(_moodle_snapshot())

    def replace(mapping: dict) -> None:
        for key in mapping:
            if draw(st.booleans()):
                mapping[key] = draw(ODD_VALUES)

    for app in snapshot["applications"].values():
        replace(app["config"])
    for relation in snapshot["relations"].values():
        for bag in relation["data"].values():
            replace(bag)
    for section in ("applications", "machines", "relations", "units"):
        for record in snapshot[section].values():
            replace(record)
    replace(snapshot)
    return snapshot


@settings(max_examples=300, deadline=None)
@given(odd_snapshots())
def test_status_text_is_the_sort_keys_text_for_odd_values(snapshot):
    """Whatever a snapshot's fields hold (a status or message that is not
    a string, an int ``leader``, mixed-type states, floats, NaN, nulls or
    mapping-valued options), ``status_text`` writes what
    ``json.dumps(indent=2, sort_keys=True)`` writes."""
    assert cli.status_text(snapshot) == json.dumps(snapshot, indent=2, sort_keys=True)

"""The seal: ``.fedweave-seal.json`` holds what ``status --format json``
prints of the model the last command to change it left: the text
``cli.status_text`` writes for its status snapshot, whose ``state_hash``
is the hash that command printed.  Its sources are every file
``load_model`` reads, with their SHA-256 as that command left them:
``model.yaml``, the file holding the model's inventory (``inventory.yaml``,
or ``federation.yaml`` for a model placed on a region), and
``projects.yaml`` when the model charges a project.  On the 600-unit
benchmark fleet the seal is about 385 KB; the benchmark's ``state_kb``
does not count it.

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
from oracles import canonical_text_oracle, status_snapshot_oracle
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
    """One entry per ``status`` answered from a loaded model, that is, not
    from the seal: both formats load it, and neither builds a snapshot
    from the seal."""
    calls = []
    real = Workspace.load_model
    monkeypatch.setattr(Workspace, "load_model", lambda self: calls.append(1) or real(self))
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
    with ``status_text`` raising, and ``json.loads`` refusing any text that
    holds a status."""
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
    assert _invoke(root, capsys, *STATUSES[1]) == unsealed[1]


@pytest.mark.parametrize("where", ["option", "relation-data"])
def test_mapping_values_are_refused(charged, capsys, where):
    """A hand-written mapping value in ``model.yaml``, as an option value
    or a relation-data value, is no value the engine writes: both formats
    of ``status``, sealed or not, and ``converge`` refuse it with one line
    naming the field, and change no file."""
    path = charged / "model.yaml"
    text = path.read_text()
    scalar = '"site_name":"Moodle"' if where == "option" else '"connected":"10.0.0.1"'
    assert text.count(scalar) == 1
    name = scalar.split(":")[0]
    path.write_text(text.replace(scalar, f'{name}:{{"b":1,"a":2}}'))
    if where == "option":
        field = "applications['moodle']['config']['site_name']"
        expected = "a string, an integer, a boolean or a float"
    else:
        relation = next(iter(json.loads(text)["model"]["relations"]))
        field = f"relations[{relation!r}]['data']['moodle/0']['connected']"
        expected = "a string"
    files = _files(charged)
    for argv in (*STATUSES, ("converge",)):
        assert _invoke(charged, capsys, *argv) == (
            1, "", f"cli: malformed model document: {field} must be {expected}, "
                   "not a mapping\n"), argv
        assert _files(charged) == files


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
    assert engine.canonical_text(resumed) == engine.canonical_text(live)
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
        state = json.loads((root / SEAL_FILE).read_bytes())["value"]
        assert state.pop("state_hash") == library
        assert state.pop("generation") == Workspace(root).load_model().generation
        assert (json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
                == canonical_text_oracle(Workspace(root).load_model()))
        for _ in ("sealed", "unsealed"):
            code, out = _cli(root, "status", "--format", "json")
            assert (code, json.loads(out)["state_hash"]) == (0, library)
            (root / SEAL_FILE).unlink(missing_ok=True)


def _assert_reference_texts(model: Model) -> None:
    """The three texts a model write makes from the model are the texts
    ``json.dumps`` writes for their reference documents: ``model.yaml``
    for the checkpoint, the hashed text for the canonical state as the
    state hash first defined it, and the seal for that text parsed, with
    the generation and digest added, which ``status_snapshot`` also
    equals.  A ``checkpoint`` after the text shares every unit's seen, and
    the text stays the same."""
    workspace = Workspace(Path("unused"))
    workspace.model = model
    text = workspace.save_model()
    reference = statefile.dump({"provider_ref": "local",
                                "model": checkpoint(model, include_inventory=False)})
    assert text == reference
    assert workspace.save_model() == reference
    hashed = engine.canonical_text(model)
    assert hashed == canonical_text_oracle(model)
    assert hashlib.sha256(hashed).hexdigest() == state_hash(model)
    reference = json.dumps(status_snapshot_oracle(model), indent=2, sort_keys=True)
    assert cli.status_text(model, state_hash(model)) == reference
    assert json.dumps(status_snapshot(model), indent=2, sort_keys=True) == reference


@settings(max_examples=60, deadline=None)
@given(demo_bundles(), st.integers(0, 60), st.booleans(), st.integers(0, 20))
def test_sealed_text_is_the_sort_keys_text(text, events, resumed, more_events):
    """At any point of a deploy, live or resumed from its checkpoint and
    stepped again, so that some units are still sharing their seen with
    the loaded document, each text of a model write is the text of its
    reference document."""
    store = _store_with_proxy2()
    model = Model(store, _ample_pool())
    try:
        deploy_bundle(model, parse_bundle(text))
    except DeploymentError:
        return
    for _ in range(events):
        if engine.step(model).event is None:
            break
    if resumed:
        model = load_checkpoint(statefile.load(statefile.dump(checkpoint(model))), store)
        for _ in range(more_events):
            if engine.step(model).event is None:
                break
    _assert_reference_texts(model)


#: Every string: non-ASCII and control characters, and lone surrogates,
#: which a JSON state file can hold as escapes.
TEXTS = st.text(st.characters(exclude_categories=()), max_size=6)
#: Every option value ``load_checkpoint`` admits: floats with NaN, the
#: infinities and -0.0, and ints far past 64 bits.
OPTION_VALUES = (st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
                 | st.integers(-(10**60), 10**60) | st.booleans() | TEXTS)


@functools.lru_cache(maxsize=1)
def _moodle_documents() -> tuple[dict, dict]:
    """The deployed moodle bundle's checkpoint and its inventory's document."""
    model = _deployed(_store_with_proxy2(), _ample_pool(), parse_bundle(MOODLE_BUNDLE))
    return checkpoint(model, include_inventory=False), model.inventory.dump()


@st.composite
def odd_models(draw) -> Model:
    """The deployed moodle bundle with any of its option values and
    relation-data values, and its units' statuses, messages, states and
    ports and its machines' properties, replaced by other values of the
    types ``load_checkpoint`` and ``Inventory.load`` admit."""
    doc, inventory = _moodle_documents()
    model = load_checkpoint(copy.deepcopy(doc), _store_with_proxy2(),
                            inventory=Inventory.load(copy.deepcopy(inventory)))

    def replace(mapping: dict, values) -> None:
        for key in mapping:
            if draw(st.booleans()):
                mapping[key] = draw(values)

    for app in model.applications.values():
        replace(app.config, OPTION_VALUES)
    for relation in model.relations.values():
        for bag in relation.data.values():
            replace(bag, TEXTS)
    for unit in model.units.values():
        unit.status, unit.message = draw(TEXTS), draw(TEXTS)
        unit.states = draw(st.sets(TEXTS, max_size=3))
        unit.open_ports = draw(st.sets(st.integers(-(10**30), 10**30), max_size=3))
    for machine_id in model.machines:
        model.inventory.machines[machine_id].properties = draw(st.sets(TEXTS, max_size=3))
    return model


@settings(max_examples=300, deadline=None)
@given(odd_models())
def test_status_text_is_the_sort_keys_text_for_odd_values(model):
    """Whatever values of the admitted types a model holds (floats with
    NaN, the infinities and -0.0, huge ints, and strings with non-ASCII
    and control characters), each text of a model write, and the status
    snapshot's, is the text ``json.dumps`` writes for its reference
    document."""
    _assert_reference_texts(model)


#: The benchmark's fleet: 600 units on fresh machines, and two of each
#: other application in containers on constrained hosts.
FLEET_600 = """\
series: xenial
applications:
  moodle: {charm: "cs:~csd-garr/moodle", num_units: 600, options: {site_name: Fleet}}
  postgresql: {charm: "cs:postgresql", num_units: 2, to: ["lxd:0", "lxd:0"]}
  haproxy: {charm: "cs:haproxy", num_units: 2, to: ["lxd:1", "lxd:2"], expose: true}
machines:
  "0": {constraints: "cpu-cores=2 mem=8192 root-disk=40960"}
  "1": {constraints: "cpu-cores=4 mem=8192 root-disk=20480"}
  "2": {constraints: "cpu-cores=2 mem=2048"}
relations:
  - ["postgresql:db", "moodle:database"]
  - ["haproxy:reverseproxy", "moodle:website"]
"""


def test_fleet_deploy_writes_the_reference_texts(tmp_path, capsys):
    """A 600-unit deploy charged to a project, as the benchmark writes it,
    with containers, machine charges and seen groups of 600 remotes,
    leaves the reference texts of the model it wrote, and the model the
    workspace loads from them writes them again."""
    (tmp_path / "fleet.yaml").write_text(FLEET_600)
    _build(tmp_path, capsys, *CHARGED[:2],
           ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4", "--mem", "8192",
            "--disk", "102400", "-n", "603"),
           *CHARGED[3:5], *(("quota", "set", path, "instances=1000", "vcpus=10000",
                             "ram=100000000", "disk=10000000") for path in ("garr", "garr/edu")),
           ("deploy", str(tmp_path / "fleet.yaml"), "--project", "garr/edu"))
    model = Workspace(tmp_path).load_model()
    assert len(model.units) == 604 and len(model.machine_charges) == 3
    assert model.inventory.machines["0"].containers == ["0/lxd/0", "0/lxd/1"]
    assert max(len(remotes) for *_, remotes in model.units["haproxy/0"].seen) == 600
    assert (tmp_path / "model.yaml").read_text() == statefile.dump(
        {"provider_ref": "local", "model": checkpoint(model, include_inventory=False)})
    assert statefile.read_derived(tmp_path / SEAL_FILE, lambda sources: True).decode() == (
        json.dumps(status_snapshot_oracle(model), indent=2, sort_keys=True))
    _assert_reference_texts(Workspace(tmp_path).load_model())

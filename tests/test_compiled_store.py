"""The compiled charm store: a workspace keeps its parsed charm files in
``.fedweave-charms.json``, keyed by their content, so a write loads the
store without parsing YAML.

The copy is derived data.  Every test here checks one side of that: the
compiled form gives back the very specs it was made from, and a command
does exactly the same with the copy, without it, or with a copy that a
charm-file edit or damage has made stale.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import types

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedweave import __version__, builtin, cli, statefile
from fedweave.charms import (
    LIFECYCLE_EVENTS,
    OPTION_TYPES,
    SETTABLE_STATUSES,
    compile_charm,
    load_charm,
    uncompile_charm,
)
from fedweave.cli import CHARM_STORE_FILE, run_command
from fedweave.plan import charm_digest
from oracles import charm_digest_oracle

# ---------------------------------------------------------------------------
# The compiled form round-trips every spec


_NAMES = st.sampled_from(["db", "web", "shared-db", "cache", "logs"])
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF, blacklist_categories=("Cc",)),
                max_size=8)
#: Defaults JSON gives back with their type and value, and defaults it does not.
_EXACT = st.one_of(st.none(), st.booleans(), st.integers(), _TEXT,
                   st.floats(allow_nan=False, allow_infinity=False))
_INEXACT = st.one_of(st.dates(), st.lists(st.integers(), max_size=2),
                     st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def charm_documents(draw) -> tuple[str, bool]:
    """A charm document's YAML text, and whether every option default is
    one JSON holds exactly."""
    provides = draw(st.dictionaries(_NAMES, _NAMES, max_size=2))
    requires = draw(st.dictionaries(_NAMES.filter(lambda n: n not in provides), _NAMES,
                                    max_size=2))
    endpoints = sorted({*provides, *requires})
    pools = draw(st.lists(st.sampled_from(["data", "scratch"]), max_size=2, unique=True))
    defaults = draw(st.lists(st.tuples(_EXACT, st.just(True)) | st.tuples(_INEXACT, st.just(False)),
                             max_size=3))
    options = {f"opt{index}": {"type": draw(st.sampled_from(OPTION_TYPES)), "default": default,
                               "description": draw(_TEXT)}
               for index, (default, _) in enumerate(defaults)}
    events = [*LIFECYCLE_EVENTS, *(f"{e}-relation-{k}" for e in endpoints
                                  for k in ("joined", "changed", "departed")),
              *(f"{pool}-storage-attached" for pool in pools)]
    flags = st.sampled_from(["installed", "ready", "db.linked"])
    actions = st.one_of(
        st.builds(lambda s: {"set-status": s}, st.sampled_from(sorted(SETTABLE_STATUSES))),
        st.builds(lambda f: {"set-state": f}, flags),
        st.builds(lambda f: {"clear-state": f}, flags),
        st.builds(lambda p: {"open-port": p}, st.integers(1, 65535)),
        st.builds(lambda m: {"fail": m}, _TEXT),
        *([st.builds(lambda e, k, v: {"set-relation-data": {"endpoint": e, "key": k, "value": v}},
                     st.sampled_from(endpoints), _NAMES, _TEXT | st.integers() | st.booleans())]
          if endpoints else []),
    )
    handlers = draw(st.lists(st.fixed_dictionaries({
        "on": st.sampled_from(events),
        "when": st.lists(flags, max_size=2),
        "do": st.lists(actions, min_size=1, max_size=3),
    }), max_size=5))
    doc = {"name": draw(st.sampled_from(["app", "pg-x"])),
           "series": draw(st.lists(st.sampled_from(["xenial", "bionic"]), min_size=1, unique=True)),
           "provides": provides, "requires": requires, "options": options,
           "handlers": handlers, "storage": pools}
    owner = draw(st.none() | st.just("csd-garr"))
    if owner is not None:
        doc["owner"] = owner
    return yaml.safe_dump(doc), all(exact for _, exact in defaults)


def _digest(spec, owner) -> str:
    ref = f"cs:~{owner}/{spec.name}" if owner else f"cs:{spec.name}"
    return charm_digest(types.SimpleNamespace(resolve_charm=lambda _: spec), [ref])


@settings(max_examples=300, deadline=None)
@given(charm_documents())
@example(("name: x\nseries: [xenial]\noptions:\n  since: {type: string, default: 2020-01-01}\n",
          False))
def test_compiled_form_round_trips_through_json(document):
    text, exact = document
    spec, owner = load_charm(text)
    form = compile_charm(spec, owner)
    assert (form is not None) == exact
    digest = _digest(spec, owner)  # every spec digests, its defaults JSON-exact or not
    if form is None:
        return
    back, back_owner = uncompile_charm(json.loads(json.dumps(form)))
    assert (back, back_owner) == (spec, owner)
    # Equality takes 1, 1.0 and True for one value; the types, repr and digest do not.
    assert [(type(s.default), repr(s.default)) for s in back.config.values()] == [
        (type(s.default), repr(s.default)) for s in spec.config.values()]
    assert back.dispatch == spec.dispatch
    assert back.guarded_kinds == spec.guarded_kinds
    assert repr(back) == repr(spec)
    assert _digest(back, back_owner) == digest


@settings(max_examples=200, deadline=None)
@given(charm_documents(), charm_documents())
@example(("name: x\nseries: [xenial]\nprovides: {requires: http, ref: pgsql}\n"
          "requires: {provides: http}\noptions:\n  ref: {type: string, default: 2020-01-01}\n"
          "  requires: {type: int, default: 1}\n", False),
         ("name: y\nseries: [bionic, xenial]\n", True))
def test_charm_digest_is_the_whole_sorted_document(first, second):
    """The named specs digest as the one document of all of them, each with
    its reference, written with ``sort_keys``, even where an endpoint or
    option is named like a key of the document."""
    (spec, owner), (other, _) = load_charm(first[0]), load_charm(second[0])
    ref = f"cs:~{owner}/{spec.name}" if owner else f"cs:{spec.name}"
    specs = {ref: spec, "cs:~z/other": other}
    store = types.SimpleNamespace(resolve_charm=specs.__getitem__)
    assert charm_digest(store, specs) == charm_digest_oracle(specs)
    assert charm_digest(store, [ref]) == charm_digest_oracle({ref: spec})
    assert charm_digest(store, []) == charm_digest_oracle({})


@pytest.mark.parametrize("text", [builtin.MOODLE_CHARM, builtin.POSTGRESQL_CHARM,
                                  builtin.HAPROXY_CHARM])
def test_demo_charms_round_trip(text):
    spec, owner = load_charm(text)
    assert uncompile_charm(json.loads(json.dumps(compile_charm(spec, owner)))) == (spec, owner)


@pytest.mark.parametrize("default", ["2020-01-01", "[1, 2]", ".nan", "-.inf", "{a: 1}"])
def test_inexact_default_is_not_compiled(default):
    spec, owner = load_charm(f"name: x\nseries: [xenial]\noptions:\n"
                             f"  o: {{type: string, default: {default}}}\n")
    assert compile_charm(spec, owner) is None


# ---------------------------------------------------------------------------
# Commands with and without the compiled store


def _invoke(root, capsys, *argv: str) -> tuple[int, str, str]:
    code = run_command(["-w", str(root), *argv])
    out, err = capsys.readouterr()
    return code, out, err


def _files(root) -> dict[str, bytes]:
    """Every file of the workspace and its charm directory, but the
    compiled store."""
    paths = [*root.iterdir(), *(root / "charms").iterdir()]
    return {str(path.relative_to(root)): path.read_bytes() for path in paths
            if path.is_file() and path.name != CHARM_STORE_FILE}


def _compiled(root) -> bytes | None:
    path = root / CHARM_STORE_FILE
    return path.read_bytes() if path.exists() else None


@pytest.fixture
def cached(tmp_path, capsys):
    """A demo workspace with the moodle bundle deployed: the deploy parsed
    the charm files and committed their compiled store."""
    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                  "--mem", "8192", "--disk", "102400", "-n", "12"),
                 ("deploy", str(tmp_path / "moodle-bundle.yaml"))):
        code, _, err = _invoke(tmp_path, capsys, *argv)
        assert code == 0, (argv, err)
    assert _compiled(tmp_path) is not None
    return tmp_path


def _twin(root, tmp_path_factory):
    """A copy of ``root`` without its compiled store."""
    twin = tmp_path_factory.mktemp("twin")
    shutil.copytree(root, twin, dirs_exist_ok=True)
    (twin / CHARM_STORE_FILE).unlink()
    return twin


def test_compiled_store_is_loaded_without_parsing(cached, capsys, monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "load_charm", lambda text: parsed.append(text) or load_charm(text))
    before = _compiled(cached)
    code, out, err = _invoke(cached, capsys, "config", "moodle", "site_name=Campus")
    assert code == 0, err
    assert "changed: site_name" in out
    assert parsed == []
    assert _compiled(cached) == before


def _append_duplicate_name(root):
    with open(root / "charms" / "haproxy.yaml", "a") as handle:
        handle.write("name: haproxy2\n")


def _define_twice(root):
    shutil.copy(root / "charms" / "postgresql.yaml", root / "charms" / "zz-postgresql.yaml")


def _delete_file(root):
    (root / "charms" / "postgresql.yaml").unlink()


def _edit_charm(root):
    path = root / "charms" / "moodle.yaml"
    path.write_text(path.read_text().replace("default: Moodle", "default: Campus"))


CHARM_EDITS = {"duplicate-key": _append_duplicate_name, "defined-twice": _define_twice,
               "file-deleted": _delete_file, "default-edited": _edit_charm}


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _fill_with_garbage(path):
    path.write_bytes(b"\xff\x00 not json {[")


def _rekey(edit):
    """Edit the copy's key and write it back with its check recomputed, as
    a writer with that key would: the copy is whole, but for other files
    or another version."""
    def rekeyed(path):
        doc = json.loads(path.read_bytes())
        del doc["check"]
        edit(doc)
        text = json.dumps(doc, separators=(",", ":"))
        path.write_text(f'{text[:-1]},"check":"{hashlib.sha256(text.encode()).hexdigest()}"}}')
    return rekeyed


def _edit_form(path):
    """Make every handler that sets a unit active set it blocked instead,
    leaving the rest of the copy's bytes, its check among them, as they are."""
    data = path.read_bytes()
    assert data.count(b'["SetUnitStatus","active"]') == 3
    path.write_bytes(data.replace(b'["SetUnitStatus","active"]', b'["SetUnitStatus","blocked"]'))


def _zero_a_digest(doc):
    doc["sources"][0][1] = "0" * 64


def _older_version(doc):
    doc["version"] = "0.0.0"


STORE_EDITS = {"truncated": _truncate, "garbage": _fill_with_garbage,
               "digest-edited": _rekey(_zero_a_digest), "version-edited": _rekey(_older_version),
               "form-edited": _edit_form}


@pytest.mark.parametrize("argv", [("config", "moodle", "site_name=X"), ("add-unit", "moodle")],
                         ids=["config", "add-unit"])
@pytest.mark.parametrize("edit", [*CHARM_EDITS, *STORE_EDITS])
def test_stale_compiled_store_changes_nothing(cached, tmp_path_factory, capsys, edit, argv):
    """After an edit to the charm files or to the compiled store, a command
    gives what it gives in a workspace that never had a compiled store."""
    twin = _twin(cached, tmp_path_factory)
    if edit in CHARM_EDITS:
        CHARM_EDITS[edit](cached)
        CHARM_EDITS[edit](twin)
    else:
        STORE_EDITS[edit](cached / CHARM_STORE_FILE)
    stale = _compiled(cached)
    result = _invoke(cached, capsys, *argv)
    assert result == _invoke(twin, capsys, *argv)
    assert _files(cached) == _files(twin)
    code, _, err = result
    if edit in ("duplicate-key", "defined-twice"):
        assert code == 1, err
    if code == 0:
        assert _compiled(cached) == _compiled(twin) != stale
    else:
        # The copy made a failure no different; the failed command commits nothing.
        assert err.startswith("charm-store: ") and edit in CHARM_EDITS, err
        assert (_compiled(cached), _compiled(twin)) == (stale, None)


def test_duplicate_key_fails_after_a_cached_write(cached, capsys):
    _append_duplicate_name(cached)
    code, out, err = _invoke(cached, capsys, "config", "moodle", "site_name=X")
    assert (code, out) == (1, "")
    assert err == ("charm-store: malformed charm document: duplicate key 'name' "
                   "(line 25, column 1)\n")


@pytest.mark.parametrize("argv", [("status",), ("status", "--format", "json"), ("plan", "dot"),
                                  ("plan", "dot", "moodle-bundle.yaml"),
                                  ("validate", "moodle-bundle.yaml")])
def test_reads_write_no_compiled_store(cached, capsys, monkeypatch, argv):
    (cached / CHARM_STORE_FILE).unlink()
    files = _files(cached)
    monkeypatch.chdir(cached)
    code, _, err = _invoke(cached, capsys, *argv)
    assert code == 0, err
    assert _compiled(cached) is None
    assert _files(cached) == files


def test_inexact_default_leaves_the_store_uncompiled(cached, capsys, monkeypatch):
    (cached / CHARM_STORE_FILE).unlink()
    (cached / "charms" / "dated.yaml").write_text(
        "name: dated\nseries: [xenial]\noptions:\n  since: {type: string, default: 2020-01-01}\n")
    parsed = []
    monkeypatch.setattr(cli, "load_charm", lambda text: parsed.append(text) or load_charm(text))
    for value in ("A", "B"):
        code, _, err = _invoke(cached, capsys, "config", "moodle", f"site_name={value}")
        assert code == 0, err
        assert _compiled(cached) is None
    assert len(parsed) == 2 * 4  # every file, on every write


def test_inexact_default_compiles_and_executes_a_plan(tmp_path, capsys):
    """A charm whose option default JSON cannot hold digests into a plan's
    header, and the plan runs, as the bundle deploys."""
    for argv in (("init", "--demo"), ("machine", "add-zone", "garr-01", "az1"),
                 ("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                  "--mem", "8192", "--disk", "102400", "-n", "4")):
        assert _invoke(tmp_path, capsys, *argv)[0] == 0, argv
    path = tmp_path / "charms" / "moodle.yaml"
    text = path.read_text()
    assert text.count("options:\n") == 1
    path.write_text(text.replace("options:\n",
                                 "options:\n  since: {type: string, default: 2020-01-01}\n"))
    plan = str(tmp_path / "moodle.plan")
    code, _, err = _invoke(tmp_path, capsys, "plan", "compile", str(tmp_path / "moodle-bundle.yaml"),
                          "-o", plan)
    assert code == 0, err
    code, out, err = _invoke(tmp_path, capsys, "plan", "execute", plan)
    assert (code, err) == (0, ""), err
    assert "state hash: " in out


# ---------------------------------------------------------------------------
# Differential: the same day-2 sequence with and without the compiled store


def _day2_commands(rng: random.Random, count: int) -> list[tuple[str, ...]]:
    choices = [
        lambda: ("config", "moodle", f"site_name=S{rng.randrange(4)}"),
        lambda: ("config", "postgresql", f"listen_port={rng.randrange(5430, 5434)}"),
        lambda: ("add-unit", "moodle", *rng.choice([(), ("--no-converge",)])),
        lambda: ("add-unit", "postgresql", "--to", f"lxd:{rng.randrange(3)}"),
        lambda: ("remove-unit", f"moodle/{rng.randrange(5)}", *rng.choice([(), ("--no-converge",)])),
        lambda: ("add-relation", "postgresql:db", "moodle:database"),
        lambda: ("converge",),
        lambda: ("validate", rng.choice(["moodle-bundle.yaml", "scaled-bundle.yaml"])),
        lambda: ("plan", "compile", "scaled-bundle.yaml"),
        lambda: ("status",),
    ]
    return [rng.choice(choices)() for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_day2_sequence_is_the_same_without_the_compiled_store(
    cached, tmp_path_factory, capsys, monkeypatch, seed
):
    twin = _twin(cached, tmp_path_factory)
    monkeypatch.chdir(cached)  # the bundles are named relative to it, and alike in both
    for argv in _day2_commands(random.Random(seed), 30):
        (twin / CHARM_STORE_FILE).unlink(missing_ok=True)
        result = _invoke(cached, capsys, *argv)
        assert result == _invoke(twin, capsys, *argv), argv
        assert _files(cached) == _files(twin), argv
        if _compiled(twin) is not None:
            assert _compiled(twin) == _compiled(cached), argv
    status = _invoke(cached, capsys, "status", "--format", "json")
    assert status == _invoke(twin, capsys, "status", "--format", "json")
    assert json.loads(status[1])["state_hash"]


def test_compiled_store_names_its_key(cached):
    doc = json.loads(_compiled(cached))
    assert (doc["format"], doc["version"]) == (statefile.DERIVED_FORMAT, __version__)
    assert doc["sources"] == [[path.name, hashlib.sha256(path.read_bytes()).hexdigest()]
                              for path in sorted((cached / "charms").glob("*.yaml"))]
    assert [(form["owner"], form["name"]) for form in doc["value"]] == [
        (None, "haproxy"), ("csd-garr", "moodle"), (None, "postgresql")]


def test_charm_files_are_listed_as_a_sorted_glob(tmp_path):
    """``_CharmFiles`` lists ``charms/`` without a glob and finds the names
    ``sorted(glob("*.yaml"))`` finds, in its order: dotfiles and a bare
    ``.yaml`` among them, a directory too, and no other suffix or case."""
    charms = tmp_path / "charms"
    charms.mkdir()
    for name in (".x.yaml", ".yaml", "B.YAML", "c.yml", "d.yaml~", "a b.yaml", "e.yaml",
                 "A.yaml", "yaml", "f.yaml.bak"):
        (charms / name).write_text("")
    (charms / "sub.yaml").mkdir()
    names = cli._CharmFiles(tmp_path).names()
    assert names == [path.name for path in sorted(charms.glob("*.yaml"))]
    assert names == [".x.yaml", ".yaml", "A.yaml", "a b.yaml", "e.yaml", "sub.yaml"]
    assert cli._CharmFiles(tmp_path / "none").names() == []

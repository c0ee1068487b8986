"""Command line front end.

State lives in a workspace directory (``--workspace`` / ``-w``, or the
``FEDWEAVE_WORKSPACE`` environment variable, default ``.``):

    charms/*.yaml     charm definitions; together they form the store
    inventory.yaml    the local provider inventory
    model.yaml        deployment checkpoint + which provider it points at
    federation.yaml   regions, catalog, identity mappings
    projects.yaml     project tree with quotas and usage

The four state files are compact JSON (see ``statefile``), which parses
far faster than YAML.  They keep their ``.yaml`` names because JSON is
valid YAML, so scripts, docs and tools that read those paths keep
working.  Workspaces written as YAML by earlier versions, and
hand-written inventories, are still read, and are rewritten as JSON by
the next command that changes state.  Charm files and hand-written state
are read by the bundles' strict loader: a duplicate, non-scalar or merge
key is an error, with its line and column.

A ``Workspace`` loads each file at most once per invocation.  A command
that changes state ends in one ``commit``, which rewrites only the state
files whose text changed (a ``config`` on a model placed on a region
rewrites ``model.yaml`` alone) and rewrites them as one set: a commit of
several files is recorded in ``.fedweave-commit`` before any of them is
replaced.  Every invocation that takes the lock, before it loads
anything, finishes a commit an earlier one recorded but did not finish
and deletes temporary files that no record names, so after a crash the
files are all old or all new.  Read commands write nothing.

The charm store is loaded on first use, by the first part of a command
that needs a charm (a handler to run, an option schema, an endpoint).  A
read such as ``status`` loads none, and a charm file that is malformed or
missing fails only the commands that need a charm.  It is loaded from
``.fedweave-charms.json``, a compiled copy keyed by the charm files'
content, when the files are as they were when it was made; otherwise all
charm files are parsed, once, and a command that commits then writes the
new compiled copy.  Every file is read as bytes and decoded as UTF-8.

The workspace lock is an ``flock`` on ``.fedweave-lock``, which holds the
holder's pid and start time, and which the kernel lets go of when the
holder dies.  A command that finds it held fails at once, naming the
holder; a ``status`` polls for up to ``STATUS_LOCK_WAIT`` seconds first.

Arguments are parsed straight from the one ``COMMANDS`` table: a plain
argv (the workspace option, the command words, the positionals, then
options spelled in full) becomes the invoked command's namespace with no
argparse parser built.  Every other argv, ``--help``, an abbreviation or a
usage error among them, goes to the full argparse tree, so what it prints
and its exit code are argparse's own.  ``--format json`` output is
byte for byte ``json.dumps(indent=2, sort_keys=True)``, with no reference
cycle left behind: ``_json_text`` writes a listing's text, and
``status_text``, the one function that makes a status's JSON text,
writes it by the layout of a status snapshot, whose values have the
types ``engine.load_checkpoint`` admits.  A ``status`` pays for what it
prints: it parses no charm, loads the inventory in one pass, and keeps
each unit's seen groups as ``model.yaml`` holds them, looking at the
first alone (``engine.load_checkpoint``).

A command that changes the model builds its status snapshot after the
commit, prints the snapshot's state hash, and writes
``.fedweave-seal.json``: the exact text ``status --format json`` prints
for that snapshot, sealed to the SHA-256 of every file ``load_model``
reads as the commit left them (``model.yaml``, the file holding the
model's inventory, and ``projects.yaml`` when the model charges a
project).  ``status`` hashes those files and, when the seal names their
very bytes, parses no state file and takes no lock: ``--format json``
prints the sealed text and parses or renders nothing, and the plain
tables parse it once.  Otherwise ``status`` loads the model under the
lock, so its output and exit code are the same either way.  On the
600-unit fleet the seal is about 385 KB, up from about 240 KB when it
held the compact canonical state; the benchmark's ``state_kb`` does not
count it.  The seal and the compiled
store are derived files, written after the commit and never by a read,
and absent when damaged.
A state document of the wrong shape, such as a model field of a type the
engine never writes, fails the command with one ``<module>: malformed
<what> document`` line.

``run_command`` runs a command with the cyclic garbage collector off: a
command's objects form no reference cycles, so reference counting frees
them all (``tests/test_gc.py`` checks every command).  An argv left to
the full argparse tree leaves that tree's cycles for the collector to free
once ``run_command`` has turned it back on.

Exit codes: 0 success, 1 operational error (printed as ``module:
message`` on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import hashlib
import json
import os
import sys
import time
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import builtin, statefile
from .bundle import parse_bundle, parse_placement, validate_bundle
from .charms import CharmSpec, CharmStore, compile_charm, load_charm, uncompile_charm
from .engine import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    ConvergenceResult,
    Model,
    add_relation,
    add_unit,
    checkpoint,
    deploy_bundle,
    load_checkpoint,
    remove_unit,
    run_to_convergence,
    set_config,
    state_hash,  # noqa: F401 (the benchmark's tracer wraps cli.state_hash)
    status_snapshot,
    unit_sort_key,
)
from .errors import FedweaveError
from .federation import Federation
from .plan import compile_plan, execute_plan, export_dot, parse_plan
from .provider import Inventory, machine_sort_key
from .quota import COMPONENTS, ProjectTree, QuotaSet

LOCK_FILE = ".fedweave-lock"
#: How long, in seconds, a ``status`` that the seal cannot answer polls the
#: seal and the lock; every other command fails at once on a held lock.
STATUS_LOCK_WAIT = 10.0
_LOCK_POLL = 0.02
STATE_FILES = ("model.yaml", "inventory.yaml", "federation.yaml", "projects.yaml")
#: Derived files (see ``statefile.write_derived``), written after the commit
#: and not state files: the compiled copy of the charm store (see
#: ``_CharmFiles``), and what ``status --format json`` printed of the model
#: the last model write left, sealed to the files the model was loaded from
#: (see ``Workspace.seal``).
CHARM_STORE_FILE = ".fedweave-charms.json"
SEAL_FILE = ".fedweave-seal.json"


class CliError(FedweaveError):
    module = "cli"


# ---------------------------------------------------------------------------
# Workspace


class Workspace:
    """The state of one workspace directory during one command.

    Each state file is loaded at most once, and the object loaded from it
    is the one every part of the command reads and changes: a model placed
    on a region acquires machines from the inventory inside the loaded
    ``Federation``.  ``commit`` writes back, as one all-or-nothing set,
    every loaded document whose text differs from its file's.  The lock
    keeps each file as it was read, so the workspace keeps the SHA-256 of
    the bytes it loaded and compares the new text's against it, rather
    than holding the text, most of a megabyte for a 600-unit fleet, through
    the command or reading the file again.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.inventory_path = root / "inventory.yaml"
        self.model_path = root / "model.yaml"
        self.federation_path = root / "federation.yaml"
        self.projects_path = root / "projects.yaml"
        self.charms_dir = root / "charms"
        self.model: Model | None = None
        self.provider_ref = "local"
        self._documents: dict[Path, Inventory | Federation | ProjectTree] = {}
        # The SHA-256 of each loaded file's bytes (None when it does not
        # exist); once committed, of the text the commit left in it.
        self._digests: dict[Path, str | None] = {}
        self._charm_files = _CharmFiles(root)

    def require_init(self) -> None:
        if not self.inventory_path.exists():
            raise CliError(
                f"{self.root} is not an initialised workspace (run `fedweave init`)"
            )

    def store(self) -> CharmStore:
        """The charm store of ``charms/*.yaml``, loaded on first use: from
        the compiled copy when it was made from the same file contents,
        else parsed, and then compiled to be written after the commit."""
        # The loader's holder is not the workspace: the model holds its
        # store, and a store that held the workspace would keep the model
        # alive until the next garbage collection.
        return CharmStore(self._charm_files.load)

    def _document(self, path: Path, kind):
        """The ``kind`` loaded from ``path`` on first use; empty when the
        file does not exist, and then created by the commit."""
        if path not in self._documents:
            data = self._read_state(path)
            self._documents[path] = kind() if data is None else kind.load_yaml(data)
        return self._documents[path]

    def _read_state(self, path: Path) -> bytes | None:
        """The bytes of ``path`` (None when it does not exist), whose
        SHA-256 the workspace keeps."""
        data = _read(path)
        self._digests[path] = _sha256(data)
        return data

    def inventory(self) -> Inventory:
        return self._document(self.inventory_path, Inventory)

    def federation(self) -> Federation:
        return self._document(self.federation_path, Federation)

    def projects(self) -> ProjectTree:
        return self._document(self.projects_path, ProjectTree)

    # -- the model and the provider behind it ---------------------------

    def load_model(self) -> Model:
        if self.model is not None:
            return self.model
        if not self.model_path.exists():
            raise CliError("no model in this workspace (deploy a bundle first)")
        doc = statefile.load_mapping(self._read_state(self.model_path), "model", CliError,
                                     allow_empty=False)
        with statefile.malformed("model", CliError):
            self.provider_ref = doc.get("provider_ref", "local")
            if self.provider_ref == "local":
                inventory = self.inventory()
            else:
                region = self.federation().regions.get(self.provider_ref)
                if region is None:
                    raise CliError(f"model references unknown region {self.provider_ref!r}")
                inventory = region.inventory
            body = doc.get("model") or {}
            tree = self.projects() if body.get("project") else None
            self.model = load_checkpoint(body, self.store(), inventory=inventory,
                                         quota_tree=tree)
        return self.model

    def new_model(self, region: str | None, project: str | None, strict_conflicts: bool) -> Model:
        """Start the workspace's model on a production region, or locally,
        charging ``project`` when one is named."""
        if region is None:
            inventory = self.inventory()
        else:
            inventory = self.federation().production_region(region).inventory
            self.provider_ref = region
        tree = self.projects() if project else None
        self.model = Model(
            self.store(),
            inventory,
            project=tree.find(project).id if project else None,
            quota_tree=tree,
            strict_conflicts=strict_conflicts,
        )
        return self.model

    def save_model(self) -> str:
        """The text of ``model.yaml`` for the model as it is now."""
        return statefile.dump(
            {"provider_ref": self.provider_ref,
             "model": checkpoint(self.model, include_inventory=False)}
        )

    def commit(self) -> None:
        """Write back every loaded document whose text changed, all or
        nothing, and then a newly compiled charm store."""
        statefile.commit(self.root, self._changed_texts())
        if self._charm_files.compiled is not None:
            statefile.write_derived(self._charm_files.path, *self._charm_files.compiled)

    def _changed_texts(self) -> Iterator[tuple[str, str]]:
        """The file name and new text of each loaded document whose text
        differs from its file's.  A file read as YAML counts as changed, so
        it is rewritten as JSON.  A new model's file was never loaded, so
        it is read to compare."""
        renders = [(path, document.dump_yaml) for path, document in self._documents.items()]
        if self.model is not None:
            renders.append((self.model_path, self.save_model))
        for path, render in renders:
            text = render()
            digest = _sha256(text.encode("utf-8"))
            if digest != (self._digests[path] if path in self._digests else _sha256(_read(path))):
                yield path.name, text
            self._digests[path] = digest

    # -- the seal ---------------------------------------------------------

    def _seal_sources(self) -> list[list]:
        """Every file ``load_model`` reads: ``model.yaml``, the file holding
        the model's inventory (``inventory.yaml``, or ``federation.yaml``
        for a model placed on a region) and ``projects.yaml`` when the
        model charges a project, each with the SHA-256 the workspace knows
        for it."""
        paths = [self.model_path, self.inventory_path if self.provider_ref == "local"
                 else self.federation_path]
        if self.model.project:
            paths.append(self.projects_path)
        return [[path.name, self._digests[path]] for path in paths]

    def seal(self, text: bytes) -> None:
        """Record, in a derived file, that the committed files hold a model
        whose ``status --format json`` prints ``text``.  After a crash the
        seal may be stale, missing, cut short or end in its old text, and
        each of those reads as no seal."""
        statefile.write_derived(self.root / SEAL_FILE, self._seal_sources(), text)

    def sealed_status(self) -> bytes | None:
        """What ``status --format json`` prints, as the seal holds it, when
        the workspace is initialised, ``statefile.recover`` has nothing to
        do, the seal is whole and every file it names is byte for byte as
        the write that sealed it left it; None when the model must be
        loaded instead.  It needs no lock: state files change only by
        rename and the seal only after its commit, so files that match a
        whole seal are the files of one committed state."""
        if not self.inventory_path.exists() or not _UNRECOVERED.isdisjoint(os.listdir(self.root)):
            return None
        sealed = statefile.read_derived(self.root / SEAL_FILE, self._sources_current)
        if sealed is None or not sealed.startswith(_SEALED_HEAD):
            return None  # none, or of an older layout
        return sealed

    def _sources_current(self, sources: list) -> bool:
        """Whether each ``[name, SHA-256]`` of a seal names a state file
        whose bytes have that SHA-256."""
        return all(type(source) is list and len(source) == 2 and source[0] in STATE_FILES
                   and _sha256(_read(self.root / source[0])) == source[1] for source in sources)


#: How every ``status_text`` of a status snapshot starts, and no earlier
#: seal value did: the bare hash, or compact ``generation``, ``hash`` and
#: ``state`` fields.
_SEALED_HEAD = b'{\n  "applications": '
#: What ``statefile.recover`` finishes or deletes; while one is present, a
#: ``status`` takes the lock, under which it is recovered first.
_UNRECOVERED = frozenset({statefile.COMMIT_RECORD, *map(statefile._temporary, STATE_FILES)})


class _CharmFiles:
    """The source of a workspace's charm store: ``charms/*.yaml``, or the
    compiled copy of them in ``CHARM_STORE_FILE``.

    The copy is a derived file whose sources are the charm files and whose
    value is each spec's ``compile_charm`` form.  While it reads, ``load``
    rebuilds the specs from it instead of parsing YAML; any edit to a charm
    file, a file added or removed, or a copy that does not read, misses,
    and the files are parsed exactly as without a copy.  A store that had
    to be parsed, and whose every spec registered, leaves its new copy's
    text in ``compiled`` for the command to write after its commit; one
    with an option default JSON cannot hold exactly leaves none, and is
    parsed by every command.
    """

    def __init__(self, root: Path) -> None:
        self.charms_dir = root / "charms"
        self.path = root / CHARM_STORE_FILE
        self.compiled: tuple[list, bytes] | None = None

    def names(self) -> list[str]:
        """The names in ``charms/`` that end in ``.yaml``, sorted: what
        ``sorted(glob("*.yaml"))`` finds, without compiling the pattern
        that a glob compiles in every new process."""
        if not self.charms_dir.is_dir():
            return []
        return sorted(name for name in os.listdir(self.charms_dir) if name.endswith(".yaml"))

    def load(self) -> Iterator[tuple[CharmSpec, str | None]]:
        """The ``(spec, owner)`` pairs of the charm files, in file order."""
        files = [(name, (self.charms_dir / name).read_bytes()) for name in self.names()]
        sources = [[name, _sha256(data)] for name, data in files]
        compiled = statefile.read_derived(self.path, lambda recorded: recorded == sources)
        if compiled is not None:
            yield from map(uncompile_charm, json.loads(compiled))
            return
        specs = []
        for _, data in files:
            specs.append(load_charm(data))
            yield specs[-1]
        # The store asks for the next pair only after registering the last,
        # so this runs only when every spec registered.
        forms = [compile_charm(spec, owner) for spec, owner in specs]
        if None not in forms:
            self.compiled = (sources, statefile.dump(forms).encode("utf-8"))


def _read(path: Path) -> bytes | None:
    """The bytes of ``path``, or None when it does not exist."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


class _LockHeld(CliError):
    """The workspace lock is held by another invocation."""


@contextlib.contextmanager
def _locked(root: Path):
    """Hold the workspace lock: an exclusive ``flock`` on ``LOCK_FILE``,
    which the kernel drops when its holder dies.  The holder writes its
    pid and start time into the file and unlinks it before letting go, so
    a lock taken on a file no longer linked is let go and taken again on
    the file now at the path."""
    lock = root / LOCK_FILE
    while True:
        try:
            fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o666)
        except FileNotFoundError:
            raise CliError(f"workspace directory {root} does not exist") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 100).decode("utf-8", "replace").split()
            os.close(fd)
            named = ": pid {}, started {}".format(*holder) if len(holder) == 2 else ""
            raise _LockHeld(f"workspace {root} is locked by another invocation{named}") from None
        if os.fstat(fd).st_nlink:
            break
        os.close(fd)
    try:
        # Over what a killed holder left, cut after writing: ext4 flushes a
        # file truncated to zero and then written when it is closed.
        line = f"{os.getpid()} {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n"
        os.ftruncate(fd, os.write(fd, line.encode("ascii")))
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)
        os.close(fd)


# ---------------------------------------------------------------------------
# Small output helpers


def _table(rows: list[tuple]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    a document of string-keyed mappings, lists and scalars, written at
    the indent of ``newline``: a line break and the indent of the line the
    value starts on.  ``json.dumps`` with ``indent`` builds its pure-Python
    encoder anew on every call, from closures that refer to each other: a
    reference cycle, which a command must not leave (see ``run_command``).
    This builds none, and has ``json.dumps``'s C encoder write each scalar
    that is not a string."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json_text(item, inner) for item in value]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    return json.dumps(value)


def status_text(snapshot: dict) -> str:
    """``json.dumps(snapshot, indent=2, sort_keys=True)``, byte for byte:
    what ``status --format json`` prints, and what a model write seals.

    It is written for the layout ``status_snapshot`` builds, whose values
    have the types the engine writes (``load_checkpoint`` refuses any
    other).  A unit or machine record is one f-string template, and a
    relation one template around a ``str.join`` per data bag; the
    applications and the scalars are ``_json_text``.  Every model write
    pays for this text: on the 600-unit benchmark fleet it took 2.4 ms
    against 12.3 ms for ``json.dumps`` (fastest of 81 runs each, on a
    2-core x86-64 host).
    """
    chunks = []
    lead = "{\n  "
    for key, record_text in _STATUS_SECTIONS:
        value = snapshot[key]
        if record_text is not None and value:
            texts: dict = {}
            text = "{\n    " + ",\n    ".join(
                [f"{encode_basestring_ascii(name)}: {record_text(value[name], texts)}"
                 for name in sorted(value)]) + "\n  }"
        else:
            text = _json_text(value, "\n  ")
        chunks.append(f'{lead}"{key}": {text}')
        lead = ",\n  "
    chunks.append("\n}")
    return "".join(chunks)


def _strings_text(items: list, texts: dict) -> str:
    """A list of strings at indent 6.  ``texts`` keeps the text of each
    list by its items, since a fleet's units share a few lists of states."""
    if not items:
        return "[]"
    key = tuple(items)
    text = texts.get(key)
    if text is None:
        text = texts[key] = ("[\n        " + ",\n        ".join(map(encode_basestring_ascii, items))
                             + "\n      ]")
    return text


def _ints_text(items: list) -> str:
    """A list of ints at indent 6."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(int.__repr__, items)) + "\n      ]"


def _unit_text(unit: dict, texts: dict) -> str:
    application, leader, machine, message, ports, states, status = unit.values()
    return (f'{{\n      "application": {encode_basestring_ascii(application)},'
            f'\n      "leader": {"true" if leader else "false"},'
            f'\n      "machine": {encode_basestring_ascii(machine)},'
            f'\n      "message": {encode_basestring_ascii(message)},'
            f'\n      "open_ports": {_ints_text(ports)},'
            f'\n      "states": {_strings_text(states, texts)},'
            f'\n      "status": {encode_basestring_ascii(status)}\n    }}')


def _machine_text(machine: dict, texts: dict) -> str:
    arch, az, containers, cores, disk, mem, properties, region, series, state = machine.values()
    # An int's str is its repr, as json.dumps writes it.
    return (f'{{\n      "arch": {encode_basestring_ascii(arch)},'
            f'\n      "az": {encode_basestring_ascii(az)},'
            f'\n      "containers": {_strings_text(containers, texts)},'
            f'\n      "cores": {cores},\n      "disk": {disk},\n      "mem": {mem},'
            f'\n      "properties": {_strings_text(properties, texts)},'
            f'\n      "region": {encode_basestring_ascii(region)},'
            f'\n      "series": {encode_basestring_ascii(series)},'
            f'\n      "state": {encode_basestring_ascii(state)}\n    }}')


def _relation_text(relation: dict, texts: dict) -> str:
    data, interface, provider, requirer = relation.values()
    bags = "{}" if not data else "{\n        " + ",\n        ".join(
        [f"{encode_basestring_ascii(unit_id)}: {_bag_text(data[unit_id])}"
         for unit_id in sorted(data)]) + "\n      }"
    return (f'{{\n      "data": {bags},'
            f'\n      "interface": {encode_basestring_ascii(interface)},'
            f'\n      "provider": {encode_basestring_ascii(provider)},'
            f'\n      "requirer": {encode_basestring_ascii(requirer)}\n    }}')


def _bag_text(bag: dict) -> str:
    """A relation data bag of strings at indent 8."""
    if not bag:
        return "{}"
    return "{\n          " + ",\n          ".join(
        [f"{encode_basestring_ascii(key)}: {encode_basestring_ascii(bag[key])}"
         for key in sorted(bag)]) + "\n        }"


#: The keys of a status snapshot in sorted order, each with the function
#: that writes one record of its value, when that value is an object of
#: records.  Each unpacks a record's values in the sorted order of its
#: keys, the order in which ``engine._canonical_state`` builds it.
_STATUS_SECTIONS = (("applications", None), ("generation", None), ("machines", _machine_text),
                    ("pending_events", None), ("relations", _relation_text),
                    ("state_hash", None), ("units", _unit_text))


def _parse_pairs(pairs: list[str], what: str) -> dict[str, str]:
    parsed = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise CliError(f"malformed {what} {pair!r} (expected key=value)")
        parsed[key] = value
    return parsed


def _quota_amounts(pairs: list[str]) -> QuotaSet:
    raw = _parse_pairs(pairs, "amount")
    unknown = sorted(set(raw) - set(COMPONENTS))
    if unknown:
        raise CliError(f"unknown quota components: {', '.join(unknown)}")
    try:
        return QuotaSet(**{key: int(value) for key, value in raw.items()})
    except ValueError as exc:
        raise CliError(f"malformed quota amount: {exc}") from None


def _read_bundle(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"no such bundle file: {path}")
    return parse_bundle(path.read_bytes())


# ---------------------------------------------------------------------------
# Commands


def cmd_init(ws: Workspace, args) -> int:
    if ws.inventory_path.exists():
        raise CliError(f"workspace {ws.root} is already initialised")
    ws.charms_dir.mkdir(parents=True, exist_ok=True)
    ws.inventory()  # empty, so the commit writes it
    if not args.demo:
        return _commit(ws, [f"initialised {ws.root}"])
    for text, name in (
        (builtin.MOODLE_CHARM, "moodle"),
        (builtin.POSTGRESQL_CHARM, "postgresql"),
        (builtin.HAPROXY_CHARM, "haproxy"),
    ):
        (ws.charms_dir / f"{name}.yaml").write_text(text, encoding="utf-8")
    (ws.root / "moodle-bundle.yaml").write_text(builtin.MOODLE_BUNDLE, encoding="utf-8")
    (ws.root / "scaled-bundle.yaml").write_text(builtin.SCALED_BUNDLE, encoding="utf-8")
    return _commit(ws, [f"initialised {ws.root} with demo charms and bundles"])


def cmd_validate(ws: Workspace, args) -> int:
    bundle = _read_bundle(args.bundle)
    diagnostics = validate_bundle(bundle, ws.store())
    for diag in diagnostics:
        print(diag.render())
    if any(d.severity == "error" for d in diagnostics):
        return 1
    print("bundle is deployable")
    return 0


def cmd_deploy(ws: Workspace, args) -> int:
    bundle = _read_bundle(args.bundle)
    if ws.model_path.exists():
        model = ws.load_model()
        if args.region is not None and args.region != ws.provider_ref:
            raise CliError(
                f"model already placed on {ws.provider_ref!r}; cannot deploy to {args.region!r}"
            )
        if args.project is not None and args.project != model.project:
            raise CliError(
                f"model already charges project {model.project!r}; "
                f"cannot switch to {args.project!r}"
            )
        if args.lax_conflicts and model.strict_conflicts:
            raise CliError(
                "model already fails on write conflicts; cannot deploy with --lax-conflicts"
            )
    else:
        model = ws.new_model(args.region, args.project, strict_conflicts=not args.lax_conflicts)
    result = deploy_bundle(model, bundle)
    lines = [
        f"machine {bundle_id} -> {provider_id}"
        for bundle_id, provider_id in sorted(result.machine_map.items(), key=lambda i: int(i[0]))
    ]
    lines += [f"unit {unit_id} on {model.units[unit_id].machine}" for unit_id in result.units]
    lines += [f"relation {relation_id}" for relation_id in result.relations]
    _finish(ws, args, lines)
    return 0


def _commit(ws: Workspace, lines: list[str]) -> int:
    """The tail of a command that changes workspace files but not the
    model: commit, and only then print the command's ``lines``, so that a
    command that fails prints no result for a change it never committed."""
    ws.commit()
    if lines:
        print("\n".join(lines))
    return 0


def _finish(
    ws: Workspace, args, lines: list[str], converge: bool = True
) -> ConvergenceResult | None:
    """The tail of every command that changes the model: converge unless
    the command already has or ``--no-converge`` says not to, commit, and
    only then print the command's ``lines``, the outcome and the state
    hash.  Returns the outcome, or None when the command did not converge."""
    outcome = None
    if converge and not getattr(args, "no_converge", False):
        outcome = run_to_convergence(ws.model, budget=args.budget, rng_seed=args.seed)
        lines.append(f"{outcome.outcome} after {outcome.events_processed} events")
    ws.commit()
    # Hash after the commit, so that the hash reuses memory the commit freed:
    # hashing first raised a 600-unit deploy's peak RSS by about 0.5 MB.  The
    # seal then holds what ``status --format json`` prints of these files, so
    # a ``status`` of them loads no state document.
    snapshot = status_snapshot(ws.model)
    ws.seal(status_text(snapshot).encode("ascii"))
    lines.append(f"state hash: {snapshot['state_hash']}")
    print("\n".join(lines))
    return outcome


def cmd_add_unit(ws: Workspace, args) -> int:
    model = ws.load_model()
    placement = parse_placement(args.to) if args.to is not None else None
    new_ids = add_unit(model, args.application, count=args.num_units, placement=placement)
    _finish(ws, args, [f"unit {unit_id} on {model.units[unit_id].machine}" for unit_id in new_ids])
    return 0


def cmd_remove_unit(ws: Workspace, args) -> int:
    remove_unit(ws.load_model(), args.unit)
    _finish(ws, args, [])
    return 0


def cmd_config(ws: Workspace, args) -> int:
    changed = set_config(ws.load_model(), args.application, _parse_pairs(args.options, "option"))
    _finish(ws, args, [f"changed: {', '.join(changed)}" if changed else "no changes"])
    return 0


def cmd_add_relation(ws: Workspace, args) -> int:
    relation = add_relation(ws.load_model(), args.left, args.right)
    _finish(ws, args, [f"relation {relation.id} ({relation.interface})"])
    return 0


def cmd_converge(ws: Workspace, args) -> int:
    ws.load_model()
    return 0 if _finish(ws, args, []).converged else 1


def cmd_status(ws: Workspace, args, sealed: bytes | None = None) -> int:
    if args.format == "json":
        print(status_text(status_snapshot(ws.load_model())) if sealed is None
              else sealed.decode("ascii"))
        return 0
    snapshot = status_snapshot(ws.load_model()) if sealed is None else json.loads(sealed)
    print(f"state hash  {snapshot['state_hash']}")
    print(f"generation  {snapshot['generation']}")
    print(f"pending     {snapshot['pending_events']}")
    if snapshot["applications"]:
        rows = [("APP", "CHARM", "SERIES", "EXPOSED", "UNITS")]
        for name, app in snapshot["applications"].items():
            rows.append(
                (name, app["charm"], app["series"],
                 "yes" if app["exposed"] else "no", len(app["units"]))
            )
        print()
        print(_table(rows))
    if snapshot["units"]:
        rows = [("UNIT", "MACHINE", "STATUS", "LEADER", "PORTS", "STATES")]
        for unit_id in sorted(snapshot["units"], key=unit_sort_key):
            unit = snapshot["units"][unit_id]
            rows.append(
                (
                    unit_id,
                    unit["machine"],
                    unit["status"] + (f" ({unit['message']})" if unit["message"] else ""),
                    "*" if unit["leader"] else "",
                    ",".join(str(p) for p in unit["open_ports"]),
                    ",".join(unit["states"]),
                )
            )
        print()
        print(_table(rows))
    if snapshot["machines"]:
        rows = [("MACHINE", "STATE", "SERIES", "ARCH", "CORES", "MEM", "DISK")]
        for machine_id in sorted(snapshot["machines"], key=machine_sort_key):
            rec = snapshot["machines"][machine_id]
            rows.append(
                (machine_id, rec["state"], rec["series"], rec["arch"],
                 rec["cores"], rec["mem"], rec["disk"])
            )
        print()
        print(_table(rows))
    if snapshot["relations"]:
        rows = [("RELATION", "INTERFACE")]
        for relation_id, rel in snapshot["relations"].items():
            rows.append((relation_id, rel["interface"]))
        print()
        print(_table(rows))
    return 0


# -- plan ------------------------------------------------------------------


def cmd_plan_compile(ws: Workspace, args) -> int:
    bundle = _read_bundle(args.bundle)
    plan = compile_plan(bundle, ws.store())
    text = plan.render()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{len(plan.steps)} steps -> {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_plan_execute(ws: Workspace, args) -> int:
    if ws.model_path.exists():
        raise CliError("a model already exists in this workspace")
    path = Path(args.plan)
    if not path.exists():
        raise CliError(f"no such plan file: {path}")
    plan = parse_plan(path.read_bytes())
    tree = ws.projects() if args.project else None
    project_id = tree.find(args.project).id if args.project else None
    ws.model = execute_plan(
        plan,
        ws.inventory(),
        ws.store(),
        project=project_id,
        quota_tree=tree,
        budget=args.budget,
        rng_seed=args.seed,
    )
    _finish(ws, args, [f"executed {len(plan.steps)} steps"], converge=False)
    return 0


def cmd_plan_dot(ws: Workspace, args) -> int:
    if args.bundle:
        bundle = _read_bundle(args.bundle)
        print(export_dot(compile_plan(bundle, ws.store())), end="")
    else:
        print(export_dot(ws.load_model()), end="")
    return 0


# -- machines ---------------------------------------------------------------


def cmd_machine_add_zone(ws: Workspace, args) -> int:
    ws.inventory().add_zone(args.region, args.az)
    return _commit(ws, [f"zone {args.region}/{args.az}"])


def _machine_spec(args) -> dict:
    return {
        "arch": args.arch,
        "cores": args.cores,
        "mem": args.mem,
        "disk": args.disk,
        "series": args.series,
        "properties": set(args.tags.split(",")) if args.tags else set(),
    }


def cmd_machine_enlist(ws: Workspace, args) -> int:
    region, sep, az = args.zone.partition("/")
    if not sep:
        raise CliError(f"malformed zone {args.zone!r} (expected region/az)")
    inventory = ws.inventory()
    spec = _machine_spec(args)
    records = [inventory.enlist(region=region, az=az, **spec) for _ in range(args.count)]
    return _commit(ws, [f"machine {record.id} ({record.state})" for record in records])


def cmd_machine_list(ws: Workspace, args) -> int:
    inventory = ws.inventory()
    if args.format == "json":
        print(_json_text(inventory.dump()))
        return 0
    if not inventory.machines:
        print("no machines")
        return 0
    rows = [("MACHINE", "STATE", "ZONE", "ARCH", "CORES", "MEM", "DISK", "SERIES", "TAGS")]
    for machine_id in sorted(inventory.machines, key=machine_sort_key):
        rec = inventory.machines[machine_id]
        rows.append(
            (rec.id, rec.state, f"{rec.region}/{rec.az}", rec.arch,
             rec.cores, rec.mem, rec.disk, rec.series, ",".join(sorted(rec.properties)))
        )
    print(_table(rows))
    return 0


def cmd_machine_release(ws: Workspace, args) -> int:
    ws.inventory().release(args.machine)
    if ws.model_path.exists():
        doc = statefile.load_mapping(_read(ws.model_path), "model", CliError, allow_empty=False)
        with statefile.malformed("model", CliError):
            held = (doc.get("provider_ref", "local") == "local"
                    and args.machine in ((doc.get("model") or {}).get("machines") or ()))
        if held:  # refused before the commit, so nothing is written
            raise CliError(
                f"machine {args.machine!r} is held by the model; remove its units first"
            )
    return _commit(ws, [f"released {args.machine}"])


# -- federation ---------------------------------------------------------------


def cmd_region_register(ws: Workspace, args) -> int:
    region = ws.federation().register_region(args.name, _parse_pairs(args.endpoints, "endpoint"))
    return _commit(ws, [f"region {region.name} registered ({region.status})"])


def cmd_region_validate(ws: Workspace, args) -> int:
    report = ws.federation().validate_region(args.name)
    _commit(ws, [report.render()])
    return 0 if report.promoted else 1


def cmd_region_reject(ws: Workspace, args) -> int:
    ws.federation().reject_region(args.name)
    return _commit(ws, [f"region {args.name} rejected"])


def cmd_region_enlist(ws: Workspace, args) -> int:
    federation = ws.federation()
    spec = _machine_spec(args)
    machine_ids = [federation.enlist_machine(args.name, az=args.az, **spec)
                   for _ in range(args.count)]
    return _commit(ws, [f"machine {machine_id} in {args.name}/{args.az}"
                        for machine_id in machine_ids])


def cmd_region_list(ws: Workspace, args) -> int:
    federation = ws.federation()
    if args.format == "json":
        print(_json_text(federation.dump()))
        return 0
    if not federation.regions:
        print("no regions")
        return 0
    rows = [("REGION", "STATUS", "MACHINES", "SERVICES")]
    for name in sorted(federation.regions):
        region = federation.regions[name]
        rows.append(
            (name, region.status, len(region.inventory.machines),
             ",".join(sorted(region.endpoints)))
        )
    print(_table(rows))
    return 0


def cmd_region_sync(ws: Workspace, args) -> int:
    generation = ws.federation().sync_catalog(args.name)
    return _commit(ws, [f"replica of {args.name} at generation {generation}"])


def cmd_region_catalog(ws: Workspace, args) -> int:
    federation = ws.federation()
    if args.name:
        entries, generation = federation.replica_catalog(args.name)
        print(f"# replica generation {generation}")
    else:
        entries = federation.master_catalog
        print(f"# master generation {federation.master_generation}")
    for entry in entries:
        print(f"{entry.region} {entry.service_type} {entry.endpoint}")
    return 0


def cmd_identity_map(ws: Workspace, args) -> int:
    federation = ws.federation()
    return _commit(ws, [f"{eppn} -> {federation.map_identity(eppn)}" for eppn in args.eppn])


# -- quota --------------------------------------------------------------------


def cmd_quota_create(ws: Workspace, args) -> int:
    tree = ws.projects()
    if "/" in args.path:
        parent, _, name = args.path.rpartition("/")
        project_id = tree.create_project(name, parent)
    else:
        project_id = tree.add_domain(args.path)
    return _commit(ws, [f"created {project_id}"])


def cmd_quota_set(ws: Workspace, args) -> int:
    tree = ws.projects()
    node = tree.find(args.project)
    tree.set_quota(node.id, _quota_amounts(args.amounts))
    return _commit(ws, [f"{node.id} quota {_render_quota(node.quota)}"])


def cmd_quota_charge(ws: Workspace, args) -> int:
    tree = ws.projects()
    node = tree.find(args.project)
    tree.charge(node.id, _quota_amounts(args.amounts))
    return _commit(ws, [f"{node.id} usage {_render_quota(node.usage)}"])


def cmd_quota_release(ws: Workspace, args) -> int:
    tree = ws.projects()
    node = tree.find(args.project)
    tree.release(node.id, _quota_amounts(args.amounts))
    return _commit(ws, [f"{node.id} usage {_render_quota(node.usage)}"])


def _render_quota(amounts: QuotaSet) -> str:
    return " ".join(f"{name}={getattr(amounts, name)}" for name in COMPONENTS)


def cmd_quota_show(ws: Workspace, args) -> int:
    tree = ws.projects()
    if args.format == "json":
        print(_json_text(tree.dump()))
        return 0
    roots = [args.project] if args.project else sorted(
        node_id for node_id, node in tree.nodes.items() if node.parent is None
    )
    if not roots:
        print("no projects")
        return 0
    for root_id in roots:
        _print_quota_node(tree, tree.find(root_id).id, 0)
    return 0


def _print_quota_node(tree: ProjectTree, node_id: str, depth: int) -> None:
    node = tree.nodes[node_id]
    indent = "  " * depth
    print(
        f"{indent}{node.id}  quota[{_render_quota(node.quota)}]  "
        f"usage[{_render_quota(node.usage)}]"
    )
    for child_id in sorted(node.children):
        _print_quota_node(tree, child_id, depth + 1)


def cmd_quota_role(ws: Workspace, args) -> int:
    tree = ws.projects()
    node = tree.find(args.project)
    if args.role:
        tree.assign_role(node.id, args.user, args.role)
        ws.commit()
    roles = tree.effective_roles(node.id, args.user)
    print(f"{args.user}@{node.id}: {', '.join(sorted(roles)) or '(none)'}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as data."""
    return flags, options


_CONVERGE = (
    _arg("--budget", type=int, default=DEFAULT_BUDGET,
         help="maximum events to process while converging"),
    _arg("--seed", type=int, default=DEFAULT_SEED, help="seed for handler-order shuffling"),
)
_MUTATION = (
    *_CONVERGE,
    _arg("--no-converge", action="store_true", help="enqueue events but do not process them"),
)
_MACHINE_SPEC = (
    _arg("--arch", default="amd64"),
    _arg("--cores", type=int, required=True),
    _arg("--mem", type=int, required=True, help="MiB"),
    _arg("--disk", type=int, required=True, help="MiB"),
    _arg("--series", default="xenial"),
    _arg("--tags", default="", help="comma-separated host tags"),
    _arg("-n", "--count", type=int, default=1),
)
_FORMAT = (_arg("--format", choices=("text", "json"), default="text"),)
_NAME = (_arg("name"),)
_QUOTA_AMOUNTS = (_arg("project"), _arg("amounts", nargs="+", metavar="COMPONENT=N"))

# The whole command grammar, in help order: (words, help, arguments,
# handler).  Two words name a command inside one of the GROUPS.
COMMANDS = (
    (("init",), "initialise a workspace",
     (_arg("--demo", action="store_true", help="include demo charms and bundles"),), cmd_init),
    (("validate",), "check a bundle against the charm store", (_arg("bundle"),), cmd_validate),
    (("deploy",), "deploy a bundle and converge", (
        _arg("bundle"),
        _arg("--project", help="project charged for the footprint"),
        _arg("--region", help="place on this production region instead of locally"),
        _arg("--lax-conflicts", action="store_true",
             help="resolve write conflicts last-writer-wins instead of failing"),
        *_MUTATION,
    ), cmd_deploy),
    (("add-unit",), "scale an application", (
        _arg("application"),
        _arg("-n", "--num-units", type=int, default=1),
        _arg("--to", help="placement (machine id or kind:id)"),
        *_MUTATION,
    ), cmd_add_unit),
    (("remove-unit",), "remove one unit", (_arg("unit"), *_MUTATION), cmd_remove_unit),
    (("config",), "change application options", (
        _arg("application"), _arg("options", nargs="+", metavar="KEY=VALUE"), *_MUTATION,
    ), cmd_config),
    (("add-relation",), "relate two applications", (
        _arg("left", metavar="APP:ENDPOINT"), _arg("right", metavar="APP:ENDPOINT"), *_MUTATION,
    ), cmd_add_relation),
    (("converge",), "process pending events", _CONVERGE, cmd_converge),
    (("status",), "show the model", _FORMAT, cmd_status),
    (("plan", "compile"), "compile a bundle to a step list", (
        _arg("bundle"), _arg("-o", "--output", help="write the plan here instead of stdout"),
    ), cmd_plan_compile),
    (("plan", "execute"), "replay a compiled plan",
     (_arg("plan"), _arg("--project"), *_CONVERGE), cmd_plan_execute),
    (("plan", "dot"), "export topology as DOT",
     (_arg("bundle", nargs="?", help="bundle to compile (default: current model)"),),
     cmd_plan_dot),
    (("machine", "add-zone"), "register an availability zone",
     (_arg("region"), _arg("az")), cmd_machine_add_zone),
    (("machine", "enlist"), "enlist machines",
     (_arg("--zone", required=True, metavar="REGION/AZ"), *_MACHINE_SPEC), cmd_machine_enlist),
    (("machine", "list"), "list machines", _FORMAT, cmd_machine_list),
    (("machine", "release"), "release an acquired machine", (_arg("machine"),),
     cmd_machine_release),
    (("region", "register"), "register a candidate region",
     (*_NAME, _arg("endpoints", nargs="+", metavar="SERVICE=URL")), cmd_region_register),
    (("region", "validate"), "run validation; promote on success", _NAME, cmd_region_validate),
    (("region", "reject"), "reject a candidate region", _NAME, cmd_region_reject),
    (("region", "enlist"), "enlist machines into a region",
     (*_NAME, _arg("--az", default="default"), *_MACHINE_SPEC), cmd_region_enlist),
    (("region", "list"), "list regions", _FORMAT, cmd_region_list),
    (("region", "sync"), "sync a region's catalog replica", _NAME, cmd_region_sync),
    (("region", "catalog"), "show master (or a replica) catalog", (_arg("name", nargs="?"),),
     cmd_region_catalog),
    (("identity", "map"), "map external principals to local users",
     (_arg("eppn", nargs="+"),), cmd_identity_map),
    (("quota", "create"), "create a domain or nested project",
     (_arg("path", metavar="DOMAIN[/PROJECT...]"),), cmd_quota_create),
    (("quota", "set"), "set a project's quota", _QUOTA_AMOUNTS, cmd_quota_set),
    (("quota", "charge"), "charge usage against a project", _QUOTA_AMOUNTS, cmd_quota_charge),
    (("quota", "release"), "release previously charged usage", _QUOTA_AMOUNTS,
     cmd_quota_release),
    (("quota", "show"), "show the project tree", (_arg("project", nargs="?"), *_FORMAT),
     cmd_quota_show),
    (("quota", "role"), "assign or inspect a user's roles",
     (_arg("project"), _arg("user"), _arg("role", nargs="?")), cmd_quota_role),
)

GROUPS = {
    "plan": "imperative plans",
    "machine": "local inventory",
    "region": "federated regions",
    "identity": "identity federation",
    "quota": "project quotas",
}


def build_parser() -> argparse.ArgumentParser:
    """The full command tree, each command built from its one ``COMMANDS``
    entry.  It answers every argv ``_plain_parse`` leaves to it: help,
    usage errors, and the spellings only argparse accepts."""
    parser = argparse.ArgumentParser(
        prog="fedweave",
        description="Model-driven service deployment across federated regions.",
    )
    parser.add_argument(
        "-w", "--workspace",
        default=None,
        help="workspace directory (default: $FEDWEAVE_WORKSPACE or .)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, help_text, arguments, handler in COMMANDS:
        parent = commands
        if len(words) == 2:
            group = words[0]
            if group not in groups:
                groups[group] = commands.add_parser(
                    group, help=GROUPS[group]
                ).add_subparsers(dest=f"{group}_command", required=True)
            parent = groups[group]
        p = parent.add_parser(words[-1], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def _command_words(argv: list[str]) -> tuple[str, ...] | None:
    """The words of the ``COMMANDS`` entry argv seems to invoke, or None
    when it asks for help or names no entry."""
    if "-h" in argv or "--help" in argv:
        return None
    words: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        # -w X, --workspace X or an abbreviation (--work X); -wX and
        # --workspace=X are single tokens, skipped as options below.
        if token == "-w" or (len(token) > 2 and "--workspace".startswith(token)):
            next(tokens, None)
        elif not token.startswith("-"):
            words.append(token)
            if len(words) == 2 or token not in GROUPS:
                break
    found = tuple(words)
    return found if any(entry[0] == found for entry in COMMANDS) else None


def _dest(flags: tuple[str, ...]) -> str:
    """The attribute argparse stores an argument under."""
    if not flags[0].startswith("-"):
        return flags[0]
    name = next((flag for flag in flags if flag.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


_INVALID = object()


def _plain_value(spec: dict, token: str):
    """``token`` converted by ``spec``'s type and checked against its
    choices, or ``_INVALID`` where argparse would not take it as is."""
    if token.startswith("-"):
        return _INVALID
    try:
        value = spec["type"](token) if "type" in spec else token
    except (TypeError, ValueError):
        return _INVALID
    if "choices" in spec and value not in spec["choices"]:
        return _INVALID
    return value


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, built
    straight from the invoked ``COMMANDS`` entry; or None when argv is not
    in the plain form, and the full tree must answer.

    The plain form is: at most one workspace option (``-w X``, ``-wX``,
    ``--workspace X`` or ``--workspace=X``), the command words, then the
    positionals and options spelled in full (``--opt value``,
    ``--opt=value``, ``-n value`` or a bare flag), each option at most
    once.  Options may stand before or between the positionals only when
    each positional takes exactly one value; otherwise they follow them
    all.  No value may start with ``-``, and every value must convert and
    be one of its choices.  Everything else (help, abbreviations, an
    option before an optional or variadic positional, a repeat, ``--``, a
    usage error) returns None.
    """
    words = _command_words(argv)
    if words is None:
        return None
    head = argv[0]
    if head in ("-w", "--workspace"):
        workspace, start = argv[1], 2
    elif head.startswith("--workspace="):
        workspace, start = head[len("--workspace="):], 1
    elif head.startswith("-w") and "=" not in head:
        workspace, start = head[2:], 1
    else:
        workspace, start = None, 0
    end = start + len(words)
    if (workspace or "").startswith("-") or tuple(argv[start:end]) != words:
        return None
    _, _, arguments, handler = next(entry for entry in COMMANDS if entry[0] == words)
    values: dict = {"workspace": workspace, "command": words[0]}
    if len(words) == 2:
        values[f"{words[0]}_command"] = words[1]

    specs = [(_dest(flags), spec) for flags, spec in arguments if not flags[0].startswith("-")]
    # Argparse matches a positional of one value wherever it stands between
    # options; an optional or variadic one is matched greedily, from the
    # first run of positionals, so it must come before every option.
    interleaved = not any("nargs" in spec for _, spec in specs)
    options = {}
    for flags, spec in arguments:
        if flags[0].startswith("-"):
            dest = _dest(flags)
            options.update(dict.fromkeys(flags, (dest, spec)))
            is_flag = spec.get("action") == "store_true"
            values[dest] = spec.get("default", False if is_flag else None)
    positionals = []
    seen = set()
    tokens = iter(argv[end:])
    for token in tokens:
        if not token.startswith("-"):
            if seen and not interleaved:
                return None
            positionals.append(token)
            continue
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if name not in options or options[name][0] in seen:
            return None
        dest, spec = options[name]
        seen.add(dest)
        if spec.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        values[dest] = _plain_value(spec, value)
        if values[dest] is _INVALID:
            return None

    for index, (dest, spec) in enumerate(specs):
        # Greedy, as argparse matches positionals: each takes what those
        # after it leave, and at least one unless it is optional.
        nargs = spec.get("nargs")
        spare = len(positionals) - sum(later.get("nargs") != "?" for _, later in specs[index + 1:])
        count = max(0, spare if nargs == "+" else min(spare, 1))
        if count == 0:
            if nargs != "?":
                return None
            values[dest] = spec.get("default")
            continue
        taken = [_plain_value(spec, token) for token in positionals[:count]]
        if _INVALID in taken:
            return None
        values[dest] = taken if nargs == "+" else taken[0]
        positionals = positionals[count:]
    if positionals:
        return None
    if any(spec.get("required") and dest not in seen for dest, spec in options.values()):
        return None
    values["func"] = handler
    return argparse.Namespace(**values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a plain argv straight from ``COMMANDS``; any other argv
    (help, usage errors, abbreviations) with the full tree, which prints
    and exits exactly as ``build_parser().parse_args`` does."""
    args = _plain_parse(argv)
    return build_parser().parse_args(argv) if args is None else args


def run_command(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off, and turn it
    back on at the end if it was on at the start.

    Reference counting frees everything a command makes, so a collector
    pass during one finds nothing; left on, the collector would still run
    every pass the command's allocations set off, over the caller's heap
    too.  There is no option to keep it on.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_command(argv)
    finally:
        if collecting:
            gc.enable()


def _run_command(argv: list[str] | None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    root = Path(args.workspace or os.environ.get("FEDWEAVE_WORKSPACE") or ".")
    try:
        if args.func is cmd_init:
            root.mkdir(parents=True, exist_ok=True)
        waited = time.monotonic() + (STATUS_LOCK_WAIT if args.func is cmd_status else 0)
        while True:
            ws = Workspace(root)
            sealed = ws.sealed_status() if args.func is cmd_status else None
            if sealed is not None:
                return cmd_status(ws, args, sealed)
            try:
                with _locked(root):
                    statefile.recover(root, STATE_FILES)
                    if args.func is not cmd_init:
                        ws.require_init()
                    return args.func(ws, args)
            except _LockHeld:
                if time.monotonic() >= waited:
                    raise
            time.sleep(_LOCK_POLL)
    except FedweaveError as exc:
        print(f"{exc.module}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cli: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(argv=None))


if __name__ == "__main__":
    main()

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
the next command that changes state.

A ``Workspace`` loads each file at most once per invocation.  A command
that changes state ends in one ``commit``, which rewrites only the files
whose text changed (a ``config`` on a model placed on a region rewrites
``model.yaml`` alone) and rewrites them as one set: a commit of several
files is recorded in ``.fedweave-commit`` before any of them is
replaced.  Every invocation, under the lock and before it loads
anything, finishes a commit an earlier one recorded but did not finish
and deletes temporary files that no record names, so after a crash the
files are all old or all new.  Read commands write nothing.

Charm files are parsed on first use: all of them, once, by the first
part of a command that needs a charm (a handler to run, an option schema,
an endpoint).  A read such as ``status`` parses none, and a charm file
that is malformed or missing fails only the commands that need a charm.

A lock file (``.fedweave-lock``, holding the pid and start time of the
invocation that took it) guards each invocation; a second concurrent
invocation fails, naming the holder, rather than interleaving writes.

Each invocation builds only its own command's argument parser, from the
one ``COMMANDS`` table; ``--help`` and usage errors are answered by the
full command tree, so their output is the same whichever command is named.

Exit codes: 0 success, 1 operational error (printed as ``module:
message`` on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections.abc import Iterator
from pathlib import Path

from . import builtin, statefile
from .bundle import parse_bundle, parse_placement, validate_bundle
from .charms import CharmSpec, CharmStore, load_charm
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
    state_hash,
    status_snapshot,
)
from .errors import FedweaveError
from .federation import Federation
from .plan import compile_plan, execute_plan, export_dot, parse_plan
from .provider import Inventory, machine_sort_key
from .quota import COMPONENTS, ProjectTree, QuotaSet

LOCK_FILE = ".fedweave-lock"
STATE_FILES = ("model.yaml", "inventory.yaml", "federation.yaml", "projects.yaml")


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
    keeps each file as it was read, so the file is read again to compare
    rather than held through the command: for a 600-unit fleet that text
    is most of a megabyte.
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

    def require_init(self) -> None:
        if not self.inventory_path.exists():
            raise CliError(
                f"{self.root} is not an initialised workspace (run `fedweave init`)"
            )

    def store(self) -> CharmStore:
        """The charm store of ``charms/*.yaml``, parsed on first use."""
        # Not a bound method: the model holds its store, and a store that
        # held the workspace would keep the model alive until the next
        # garbage collection.
        return CharmStore(functools.partial(_charm_files, self.charms_dir))

    def _document(self, path: Path, kind):
        """The ``kind`` loaded from ``path`` on first use; empty when the
        file does not exist, and then created by the commit."""
        if path not in self._documents:
            text = _read(path)
            self._documents[path] = kind() if text is None else kind.load_yaml(text)
        return self._documents[path]

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
        try:
            doc = statefile.load(self.model_path.read_text())
        except statefile.DecodeError as exc:
            raise CliError(f"malformed model document: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("malformed model document: not a mapping")
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
        self.model = load_checkpoint(body, self.store(), inventory=inventory, quota_tree=tree)
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
        nothing."""
        statefile.commit(self.root, self._changed_texts())

    def _changed_texts(self) -> Iterator[tuple[str, str]]:
        """The file name and new text of each loaded document whose text
        differs from its file's.  A file read as YAML counts as changed,
        so it is rewritten as JSON."""
        renders = [(path, document.dump_yaml) for path, document in self._documents.items()]
        if self.model is not None:
            renders.append((self.model_path, self.save_model))
        for path, render in renders:
            text = render()
            if text != _read(path):
                yield path.name, text


def _charm_files(charms_dir: Path) -> Iterator[tuple[CharmSpec, str | None]]:
    if charms_dir.is_dir():
        for path in sorted(charms_dir.glob("*.yaml")):
            yield load_charm(path.read_text())


def _read(path: Path) -> str | None:
    """The text of ``path``, or None when it does not exist."""
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


@contextlib.contextmanager
def _locked(root: Path):
    lock = root / LOCK_FILE
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliError(_lock_holder(root, lock)) from None
    except FileNotFoundError:
        raise CliError(f"workspace directory {root} does not exist") from None
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{os.getpid()} {started}\n")
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def _lock_holder(root: Path, lock: Path) -> str:
    """Why the lock is held, naming the holder when the lock file does.
    The lock is never removed here: only the user can tell that a live
    process with that pid is not a fedweave invocation."""
    message = f"workspace {root} is locked by another invocation"
    try:
        pid_text, started = lock.read_text().split()
        pid = int(pid_text)
        if pid <= 0:
            raise ValueError(pid)
    except (OSError, ValueError):
        return f"{message} (remove {LOCK_FILE} if stale)"
    holder = f"{message}: pid {pid}, started {started},"
    try:
        os.kill(pid, 0)  # signal 0 only checks that the process exists
    except (ProcessLookupError, OverflowError):
        return f"{holder} is no longer running (the lock is stale: remove {LOCK_FILE})"
    except PermissionError:
        pass  # it exists, but belongs to another user
    return f"{holder} is still running (remove {LOCK_FILE} only if it is not fedweave)"


# ---------------------------------------------------------------------------
# Small output helpers


def _table(rows: list[tuple]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )


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
    return parse_bundle(path.read_text())


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
        (ws.charms_dir / f"{name}.yaml").write_text(text)
    (ws.root / "moodle-bundle.yaml").write_text(builtin.MOODLE_BUNDLE)
    (ws.root / "scaled-bundle.yaml").write_text(builtin.SCALED_BUNDLE)
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
    # hashing first raised a 600-unit deploy's peak RSS by about 0.5 MB.
    lines.append(f"state hash: {state_hash(ws.model)}")
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


def cmd_status(ws: Workspace, args) -> int:
    snapshot = status_snapshot(ws.load_model())
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
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
        for unit_id, unit in snapshot["units"].items():
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
        for machine_id, rec in snapshot["machines"].items():
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
        Path(args.output).write_text(text)
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
    plan = parse_plan(path.read_text())
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
        print(json.dumps(inventory.dump(), indent=2, sort_keys=True))
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
        print(json.dumps(federation.dump(), indent=2, sort_keys=True))
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
        print(json.dumps(tree.dump(), indent=2, sort_keys=True))
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


def build_parser(
    words: tuple[str, ...] | None = None,
    parser_class: type[argparse.ArgumentParser] = argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """The parser for the commands named ``words``, or for all of them.

    Every parser shares the root options and builds each command from its
    one ``COMMANDS`` entry, so the parser for one command accepts a subset
    of what the full tree accepts and gives the same result when it does.
    """
    parser = parser_class(
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
    for entry_words, help_text, arguments, handler in COMMANDS:
        if words is not None and entry_words != words:
            continue
        parent = commands
        if len(entry_words) == 2:
            group = entry_words[0]
            if group not in groups:
                groups[group] = commands.add_parser(
                    group, help=GROUPS[group]
                ).add_subparsers(dest=f"{group}_command", required=True)
            parent = groups[group]
        p = parent.add_parser(entry_words[-1], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


class _BranchMiss(Exception):
    """The one-command parser could not parse argv on its own."""


class _BranchParser(argparse.ArgumentParser):
    """A parser that raises instead of printing help or usage or exiting,
    so that the full tree can give the user its own answer."""

    def error(self, message):
        raise _BranchMiss

    def exit(self, status=0, message=None):
        raise _BranchMiss

    def print_help(self, file=None):
        raise _BranchMiss

    def print_usage(self, file=None):
        raise _BranchMiss


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


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with only the invoked command's parser when that succeeds;
    otherwise (help, usage errors) with the full tree, which prints and
    exits exactly as ``build_parser().parse_args`` does."""
    words = _command_words(argv)
    if words is not None:
        try:
            return build_parser(words, _BranchParser).parse_args(argv)
        except _BranchMiss:
            pass
    return build_parser().parse_args(argv)


def run_command(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    root = Path(args.workspace or os.environ.get("FEDWEAVE_WORKSPACE") or ".")
    try:
        if args.func is cmd_init:
            root.mkdir(parents=True, exist_ok=True)
        with _locked(root):
            statefile.recover(root, STATE_FILES)
            ws = Workspace(root)
            if args.func is not cmd_init:
                ws.require_init()
            return args.func(ws, args)
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

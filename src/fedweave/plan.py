"""Compilation of bundles into imperative plans.

Where the reactive engine converges on a bundle, a plan spells out the
equivalent fixed step sequence up front, phase by phase::

    acquire-machine* create-container* add-application* install-unit*
    join-relation*

These are the steps ``engine.deploy_bundle`` takes, in its order:
``add-application`` creates each application with its options and expose
flag, and ``install-unit`` adds one unit to a machine and enqueues its
install event.  Steps are deterministic: sorted by entity id within each
phase, with declared machines before fresh ones and the provider side
named first in every relation pair.  ``compile_plan`` renders the records
of ``bundle.lower_bundle``, which ``deploy_bundle`` applies, so executing a
plan against a fresh inventory processes the same events as
deploy-and-converge and reaches the same converged state hash.

A plan is a snapshot: it embeds digests of the source bundle and of the
charm specs it compiled against.  Executing it against a store whose
charms have since changed logs a divergence warning — the plan replays its
stale steps regardless, which is exactly the failure mode that makes the
reactive path preferable for long-lived deployments.

The bundle digest is the SHA-256 of the bundle's canonical document (the
document ``render_bundle`` writes as YAML: applications by name, machines
by numeric id, options by name, constraints rendered) serialized as compact
JSON.  It names the source a plan came from; nothing verifies it.  The
charm digest is the SHA-256 of the named charm specs as sorted compact
JSON, and execution compares it with the store's.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import shlex
from dataclasses import dataclass
from functools import partial

from . import statefile
from .bundle import (Bundle, Constraints, _canonical_document, lower_bundle, parse_constraints,
                     render_constraints)
from .charms import CharmNotFoundError, EventKind, _option_str
from .engine import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    Event,
    Model,
    UndoLog,
    UnknownEntityError,
    _acquire,
    _charge,
    _check_series,
    _create_application,
    _create_container,
    _create_unit,
    _ensure_leader,
    _undo_on_failure,
    add_relation,
    run_to_convergence,
    set_config,
)
from .errors import FedweaveError
from .provider import Inventory, machine_sort_key
from .quota import QuotaSet

logger = logging.getLogger(__name__)


class PlanError(FedweaveError):
    module = "plan"


class PlanExecutionError(PlanError):
    """A step failed; carries the index of the failing step."""

    def __init__(self, index: int, step: "PlanStep", cause: Exception):
        self.index = index
        self.step = step
        self.cause = cause
        super().__init__(f"step {index} ({step.render()}): {cause}")


# ---------------------------------------------------------------------------
# Steps


@dataclass(frozen=True)
class AcquireMachine:
    machine: str  # bundle-local id, or "fresh:<unit>" for implicit machines
    series: str
    constraints: Constraints = Constraints()

    def render(self) -> str:
        text = f"acquire-machine {self.machine} series={self.series}"
        rendered = render_constraints(self.constraints)
        if rendered:
            text += f" constraints={shlex.quote(rendered)}"
        return text


@dataclass(frozen=True)
class CreateContainer:
    host: str  # bundle-local machine id
    kind: str
    alias: str  # bundle-local container id, e.g. "0/lxd/0"

    def render(self) -> str:
        return f"create-container {self.host} {self.kind} {self.alias}"


@dataclass(frozen=True)
class AddApplication:
    application: str
    charm: str
    series: str
    options: tuple[tuple[str, str], ...] = ()
    expose: bool = False

    def render(self) -> str:
        return " ".join([f"add-application {self.application} {self.charm} series={self.series}",
                         *(["expose=true"] if self.expose else []),
                         *(f"{key}={shlex.quote(value)}" for key, value in self.options)])


@dataclass(frozen=True)
class InstallUnit:
    unit: str
    machine: str  # bundle-local machine or container alias

    def render(self) -> str:
        return f"install-unit {self.unit} {self.machine}"


@dataclass(frozen=True)
class JoinRelation:
    provider: str  # "app:endpoint", provider side first
    requirer: str
    interface: str

    def render(self) -> str:
        return f"join-relation {self.provider} {self.requirer} interface={self.interface}"


PlanStep = AcquireMachine | CreateContainer | AddApplication | InstallUnit | JoinRelation


@dataclass(frozen=True)
class ImperativePlan:
    steps: tuple[PlanStep, ...]
    bundle_digest: str
    charm_digest: str

    def render(self) -> str:
        lines = [
            f"# bundle-digest: {self.bundle_digest}",
            f"# charm-digest: {self.charm_digest}",
        ]
        lines.extend(step.render() for step in self.steps)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compilation


def compile_plan(bundle: Bundle, store) -> ImperativePlan:
    """Compile a validated bundle into its imperative step sequence."""
    machines, applications, relations = lower_bundle(bundle, store, PlanError)
    acquire_steps = [AcquireMachine(bundle_id, spec.series, spec.constraints)
                     for bundle_id, spec in machines]
    # Container steps keep their enumeration order (applications sorted by
    # name, then unit index) — that is already canonical, and it is the
    # order the reactive path creates them in.
    container_steps: list[CreateContainer] = []
    application_steps: list[AddApplication] = []
    install_steps: list[InstallUnit] = []
    for app in applications:
        options = tuple(
            (key, _option_str(app.options[key])) for key in sorted(app.options, key=str))
        application_steps.append(
            AddApplication(app.name, app.charm_ref, app.series, options, app.expose))
        for index, (placement, alias) in enumerate(app.units):
            if placement.kind == "fresh":
                acquire_steps.append(AcquireMachine(alias, app.series))
            elif placement.kind == "container":
                container_steps.append(
                    CreateContainer(placement.machine, placement.container_kind, alias))
            install_steps.append(InstallUnit(f"{app.name}/{index}", alias))
    join_steps = sorted(
        (JoinRelation(provider.render(), requirer.render(), interface)
         for provider, requirer, interface in relations),
        key=lambda s: (s.provider, s.requirer),
    )
    return ImperativePlan(
        steps=(*acquire_steps, *container_steps, *application_steps, *install_steps, *join_steps),
        bundle_digest=bundle_digest(bundle),
        charm_digest=charm_digest(store, {app.charm_ref for app in applications}),
    )


def bundle_digest(bundle: Bundle) -> str:
    """SHA-256 of the bundle's canonical document as compact JSON.

    An option value JSON has no type for (a YAML date, timestamp or binary)
    is written as a one-key object naming its type, so it never digests
    like a string."""
    blob = json.dumps(
        _canonical_document(bundle),
        separators=(",", ":"),
        default=lambda value: {type(value).__name__: str(value)},
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def charm_digest(store, refs) -> str:
    """Digest over the canonical serialization of the named charm specs."""
    canonical = []
    for ref in sorted(refs):
        spec = store.resolve_charm(ref)
        canonical.append(
            {
                "ref": ref,
                "name": spec.name,
                "series": sorted(spec.series),
                "provides": dict(sorted(spec.provides.items())),
                "requires": dict(sorted(spec.requires.items())),
                "options": {
                    name: {"type": schema.type, "default": schema.default}
                    for name, schema in sorted(spec.config.items())
                },
                "handlers": [
                    {
                        "on": handler.on.render(),
                        "when": sorted(handler.when_states),
                        "do": [repr(action) for action in handler.actions],
                    }
                    for handler in spec.handlers
                ],
                "storage": list(spec.storage_pools),
            }
        )
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Execution


def execute_plan(
    plan: ImperativePlan,
    inventory: Inventory,
    store,
    project: str | None = None,
    quota_tree=None,
    budget: int = DEFAULT_BUDGET,
    rng_seed: int = DEFAULT_SEED,
) -> Model:
    """Replay a plan against a fresh inventory and converge the result.

    Raises PlanExecutionError naming the failing step on placement or
    quota problems, on a machine or application no earlier step made, on
    an ``add-application`` of an application that exists or of a charm
    the store does not hold, and on an ``install-unit`` that names any
    unit but its application's next one (``app/0``, then ``app/1``,
    ...).  Raises QuotaExceededError when the plan's units do not fit the
    project's instance quota.  Quota follows the engine's accounting
    rule: a machine's declared constraints are charged when it is acquired
    and released when it is released, instances are charged one per unit,
    and a failed execution, convergence included, rolls back completely,
    leaving the inventory and the quota tree as they were.  When the store's charms named by
    ``add-application`` steps no longer match the digest recorded at
    compile time, a divergence warning is logged and the stale steps are
    executed as written.
    """
    refs = {s.charm for s in plan.steps if isinstance(s, AddApplication)}
    try:
        current_digest = charm_digest(store, refs)
    except CharmNotFoundError:
        pass  # a divergence already: the step that adds the charm fails below
    else:
        if current_digest != plan.charm_digest:
            logger.warning(
                "plan was compiled against charm digest %s but the store now holds %s; "
                "executing stale steps",
                plan.charm_digest[:12],
                current_digest[:12],
            )

    model = Model(store, inventory, project=project, quota_tree=quota_tree)
    machine_map: dict[str, str] = {}
    with _undo_on_failure(model) as log:
        units = sum(isinstance(planned, InstallUnit) for planned in plan.steps)
        _charge(model, log, QuotaSet(instances=units))
        for index, planned in enumerate(plan.steps):
            try:
                _execute_step(model, log, planned, machine_map)
            except FedweaveError as exc:
                raise PlanExecutionError(index, planned, exc) from exc
        run_to_convergence(model, budget=budget, rng_seed=rng_seed)
    return model


def _execute_step(model: Model, log: UndoLog, planned: PlanStep, machine_map: dict[str, str]) -> None:
    if isinstance(planned, AcquireMachine):
        machine_map[planned.machine] = _acquire(model, log, planned.constraints, planned.series)
    elif isinstance(planned, CreateContainer):
        host = _machine(machine_map, planned.host)
        machine_map[planned.alias] = _create_container(model, log, host, planned.kind)
    elif isinstance(planned, AddApplication):
        if planned.application in model.applications:
            raise PlanError(f"application {planned.application!r} already exists")
        charm = model.store.resolve_charm(planned.charm)
        _create_application(model, log, planned.application, planned.charm, charm,
                            planned.series, {}, planned.expose)
        set_config(model, planned.application, dict(planned.options))
    elif isinstance(planned, InstallUnit):
        app_name = planned.unit.partition("/")[0]
        machine_id = _machine(machine_map, planned.machine)
        app = model.applications.get(app_name)
        if app is None:
            raise UnknownEntityError(
                f"unknown application {app_name!r}: no earlier step adds it")
        next_unit = f"{app_name}/{app.unit_counter}"
        if planned.unit != next_unit:
            raise PlanError(
                f"unit {planned.unit!r} is out of order: "
                f"the next unit of {app_name!r} is {next_unit!r}"
            )
        _check_series(model, machine_id, app.charm)
        unit = _create_unit(model, log, app, machine_id)
        model.event_queue.append(Event(EventKind.install(), unit.id))
        _ensure_leader(model, app_name)
    elif isinstance(planned, JoinRelation):
        relation = add_relation(model, planned.provider, planned.requirer)
        log.append(partial(model.relations.pop, relation.id))
    else:  # pragma: no cover - the step language is closed
        raise PlanError(f"unknown step {planned!r}")


def _machine(machine_map: dict[str, str], alias: str) -> str:
    """The provider machine an earlier step made under ``alias``."""
    machine_id = machine_map.get(alias)
    if machine_id is None:
        raise PlanError(f"unknown machine {alias!r}: no earlier step acquires or creates it")
    return machine_id


# ---------------------------------------------------------------------------
# Serialization


def parse_plan(text: str | bytes) -> ImperativePlan:
    """Parse the one-step-per-line form produced by
    ``ImperativePlan.render``; bytes are read as UTF-8."""
    try:
        text = statefile.decode(text)
    except statefile.DecodeError as exc:
        raise PlanError(f"malformed plan document: {exc}") from None
    bundle_dig = ""
    charm_dig = ""
    steps: list[PlanStep] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if comment.startswith("bundle-digest:"):
                bundle_dig = comment.partition(":")[2].strip()
            elif comment.startswith("charm-digest:"):
                charm_dig = comment.partition(":")[2].strip()
            continue
        steps.append(_parse_step_line(line))
    return ImperativePlan(steps=tuple(steps), bundle_digest=bundle_dig, charm_digest=charm_dig)


#: A quote, a backslash, or whitespace that ``str.split`` splits on and
#: ``shlex.split`` does not; a line without any is split alike by both.
_NEEDS_SHLEX = re.compile(r"['\"\\]|[^\S \t\r\n]")


def _split_line(line: str) -> list[str]:
    """``shlex.split(line)``, by ``str.split`` where that gives the same."""
    return shlex.split(line) if _NEEDS_SHLEX.search(line) else line.split()


def _parse_step_line(line: str) -> PlanStep:
    try:
        tokens = _split_line(line)
    except ValueError as exc:  # an unbalanced quote or a trailing backslash
        raise PlanError(f"malformed plan line {line!r}") from exc
    try:
        verb, args = tokens[0], tokens[1:]
        if verb == "acquire-machine":
            machine = args[0]
            fields = _kv(args[1:])
            return AcquireMachine(
                machine=machine,
                series=fields["series"],
                constraints=parse_constraints(fields.get("constraints", "")),
            )
        if verb == "create-container":
            return CreateContainer(host=args[0], kind=args[1], alias=args[2])
        if verb == "add-application":
            fields = _kv(args[3:])
            expose = fields.pop("expose", "false") == "true"
            return AddApplication(args[0], args[1], _kv(args[2:3])["series"],
                                  tuple(sorted(fields.items())), expose)
        if verb == "install-unit":
            unit, machine = args  # exactly two, so no third field is read as the machine
            return InstallUnit(unit, machine)
        if verb == "join-relation":
            fields = _kv(args[2:])
            return JoinRelation(
                provider=args[0], requirer=args[1], interface=fields["interface"]
            )
    except (IndexError, KeyError, ValueError) as exc:
        raise PlanError(f"malformed plan line {line!r}") from exc
    raise PlanError(f"unknown plan step {verb!r} in line {line!r}")


def _kv(tokens: list[str]) -> dict[str, str]:
    fields = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise PlanError(f"malformed field {token!r}")
        fields[key] = value
    return fields


# ---------------------------------------------------------------------------
# DOT export


def export_dot(source) -> str:
    """Render a deployment topology as a DOT digraph.

    Accepts a converged (or in-flight) Model or an ImperativePlan.
    Applications are nodes, relations are edges labelled with their
    interface, machines are clusters containing their units, containers
    nest one level deeper.
    """
    if isinstance(source, ImperativePlan):
        apps, units, machines, containers, edges = _topology_of_plan(source)
    else:
        apps, units, machines, containers, edges = _topology_of_model(source)

    lines = ["digraph deployment {"]
    if apps or machines:
        lines.append("  rankdir=LR;")
    for app in sorted(apps):
        lines.append(f'  "app:{app}" [label="{app}", shape=ellipse];')
    for machine in sorted(machines, key=machine_sort_key):
        lines.append(f'  subgraph "cluster_{machine}" {{')
        lines.append(f'    label="machine {machine}";')
        for unit in sorted(units.get(machine, ())):
            lines.append(f'    "unit:{unit}" [label="{unit}", shape=box];')
        for container in sorted(containers.get(machine, ()), key=machine_sort_key):
            lines.append(f'    subgraph "cluster_{container}" {{')
            lines.append(f'      label="{container}";')
            for unit in sorted(units.get(container, ())):
                lines.append(f'      "unit:{unit}" [label="{unit}", shape=box];')
            lines.append("    }")
        lines.append("  }")
    for provider_app, requirer_app, interface in sorted(edges):
        lines.append(
            f'  "app:{provider_app}" -> "app:{requirer_app}" [label="{interface}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _topology_of_model(model: Model):
    apps = set(model.applications)
    units: dict[str, list[str]] = {}
    machines: set[str] = set()
    containers: dict[str, list[str]] = {}
    for unit in model.units.values():
        units.setdefault(unit.machine, []).append(unit.id)
        record = model.inventory.machines.get(unit.machine)
        if record is not None and record.is_container():
            machines.add(record.parent)
            containers.setdefault(record.parent, []).append(record.id)
        else:
            machines.add(unit.machine)
    edges = set()
    for relation in model.relations.values():
        provider_app = relation.provider.partition(":")[0]
        requirer_app = relation.requirer.partition(":")[0]
        edges.add((provider_app, requirer_app, relation.interface))
    return apps, units, machines, containers, edges


def _topology_of_plan(plan: ImperativePlan):
    apps = set()
    edges = set()
    units: dict[str, list[str]] = {}
    machines: set[str] = set()
    containers: dict[str, list[str]] = {}
    for planned in plan.steps:
        if isinstance(planned, AcquireMachine):
            machines.add(planned.machine)
        elif isinstance(planned, CreateContainer):
            containers.setdefault(planned.host, []).append(planned.alias)
        elif isinstance(planned, AddApplication):
            apps.add(planned.application)
        elif isinstance(planned, InstallUnit):
            units.setdefault(planned.machine, []).append(planned.unit)
        elif isinstance(planned, JoinRelation):
            edges.add((planned.provider.partition(":")[0], planned.requirer.partition(":")[0],
                       planned.interface))
    return apps, units, machines, containers, edges

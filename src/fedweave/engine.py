"""The reactive model and convergence engine.

A model holds applications, units, relations and a FIFO event queue.
Commands (deploy, add-unit, config, add-relation) mutate structure and
enqueue events; they never run handlers.  ``step`` dequeues one event,
looks its kind up in the charm's dispatch table (``CharmSpec.dispatch``),
keeps the handlers whose state-flag guard is satisfied, runs them in a
seed-determined pseudo-random order, applies their actions, and enqueues
follow-on events.  ``run_to_convergence`` steps until the queue drains or
a budget is exhausted, with one generator for the whole run.  A step asks
a generator to shuffle only when two or more handlers match, the one case
with an order to choose, and a step called on its own builds one for that
case alone.

Three rules make convergence insensitive to ordering:

* every hook action is an absolute write, so re-running a handler is a
  no-op (idempotence);
* relation-data writes only propagate ``relation-changed`` events when the
  value actually changed, and templates read live state rather than event
  payloads;
* when a step sets new state flags on a unit, events the unit has already
  seen are re-delivered if some handler's guard newly became satisfiable,
  so a handler can never be lost to an unlucky arrival order.  Only a
  newly set flag can complete a guard, so redelivery looks only at the
  event kinds the charm guards with those flags
  (``CharmSpec.guarded_kinds``).

Besides the ``start`` that follows every ``install``, a step enqueues
follow-on events for two reasons only: a relation-data bag it changed
(relation-changed for the remote units) and a flag it added
(redelivery).  Both are written by a handler's actions, so an event that
matches no handler, about half the events of a large deploy, can neither
emit nor re-deliver: its step records the event and returns without
looking for either.

Two handlers triggered by one event that write different values to the
same location are a charm bug; in strict mode (the default) the step
raises a conflict error instead of letting the last writer win.

Interrupted runs are resumable: ``checkpoint`` captures the full model
(optionally with its inventory) and ``load_checkpoint`` restores it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import logging
import random
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import NamedTuple

from . import seen as seen_groups
from .bundle import (AcquireMachine, AddApplication, Bundle, Constraints, CreateContainer,
                     EndpointRef, InstallUnit, JoinRelation, Placement, PlanStep, lower_bundle,
                     orient_relation)
from .charms import (
    CharmSpec,
    CharmStore,
    ClearState,
    EventKind,
    Fail,
    HookHandler,
    OpenPort,
    SetRelationData,
    SetState,
    SetUnitStatus,
    resolve_template,
)
from .errors import FedweaveError
from .provider import Inventory, machine_sort_key
from .quota import ZERO, QuotaSet

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 10_000
DEFAULT_SEED = 1

# The kind ``step`` compares every event with, and the kind it enqueues
# after each install: built once, not per event.
_INSTALL = EventKind.install()
_START = EventKind.start()


class EngineError(FedweaveError):
    module = "engine"


class CharmConflictError(EngineError):
    """Two handlers for one event wrote different values to one location."""


class UnknownEntityError(EngineError):
    """A command referenced an application, unit or relation that does not exist."""


class DeploymentError(EngineError):
    """A deploy or add-unit command could not be satisfied."""


class MalformedCheckpointError(EngineError, ValueError):
    """A checkpoint whose units contradict their applications.  A
    ``ValueError`` too, so a load reports it like any other value of the
    wrong shape."""


# ---------------------------------------------------------------------------
# Model state


class Event(NamedTuple):
    """One queued event.  A named tuple, like its ``EventKind``: every
    step builds one or more, and a tuple is built and read in C where a
    frozen dataclass's ``__init__`` goes through ``object.__setattr__``.
    ``checkpoint`` writes its fields as an explicit list."""

    kind: EventKind
    target: str  # unit id
    payload: str = ""  # relation id or storage pool
    remote: str = ""  # remote unit id for relation events

    def key(self) -> tuple[str, str, str, str]:
        return (self.kind.kind, self.kind.name, self.payload, self.remote)

    def render(self) -> str:
        text = f"{self.kind.render()}@{self.target}"
        if self.remote:
            text += f" (remote {self.remote})"
        return text


@dataclass
class Application:
    """A deployed application.  Its ``charm`` is resolved from ``store``
    by ``charm_ref`` the first time it is read, and kept, so a model
    restored from a checkpoint parses no charm until a command uses one.
    A command that has already resolved the spec assigns it."""

    name: str
    charm_ref: str
    series: str
    store: CharmStore = field(repr=False, compare=False)
    config: dict = field(default_factory=dict)
    exposed: bool = False
    unit_counter: int = 0

    @cached_property
    def charm(self) -> CharmSpec:
        return self.store.resolve_charm(self.charm_ref)


@dataclass
class Unit:
    id: str
    app: str
    machine: str
    status: str = "allocating"
    message: str = ""
    leader: bool = False
    states: set[str] = field(default_factory=set)
    open_ports: set[int] = field(default_factory=set)
    # The events this unit has processed, in the form ``checkpoint`` writes
    # (see ``fedweave.seen``).  ``step`` changes them in place only while
    # ``seen_owned``: a loaded document or a returned checkpoint shares
    # them until the unit's next step copies them.
    seen: list[list] = field(default_factory=list)
    seen_owned: bool = field(default=True, repr=False, compare=False)


@dataclass
class Relation:
    id: str
    provider: str  # "app:endpoint"
    requirer: str
    interface: str
    # unit id -> that unit's data bag in this relation
    data: dict[str, dict[str, str]] = field(default_factory=dict)

    @cached_property
    def _endpoints(self) -> dict[str, str]:
        """Each side's application -> its endpoint, built on first use:
        the engine asks for an endpoint on most relation events, and
        neither side is reassigned.  The provider is written last, so when
        both sides name one application, its endpoint wins."""
        sides = (self.requirer.partition(":"), self.provider.partition(":"))
        return {app: endpoint for app, _, endpoint in sides}

    def endpoint_of(self, app: str) -> str | None:
        return self._endpoints.get(app)

    def apps(self) -> tuple[str, str]:
        return (self.provider.partition(":")[0], self.requirer.partition(":")[0])


class Model:
    """A deployment model bound to a charm store and a provider inventory.

    Units are created only by ``_create_unit`` and removed only by
    ``remove_unit`` (or by the rollback of a failed command).  Those paths
    keep three pieces of derived state, which are never serialized and
    which ``load_checkpoint`` rebuilds: each application's unit ids in
    index order, which ``unit_ids_of`` reads; each machine's unit ids,
    which ``remove_unit`` reads to find the machines it frees; and the
    applications that may have lost their leader, which the next ``step``
    re-elects.  ``units`` stays the source of truth: an indexed id whose
    unit is gone is skipped.  A new unit takes its application's
    ``unit_counter`` as its index, which is above every index the
    application has used (``load_checkpoint`` refuses a counter that is
    not), so it goes at the end of the unit index.

    ``machine_charges`` holds, for each held machine acquired with
    constraints, what its acquisition charged the project; releasing the
    machine releases exactly that.
    """

    def __init__(
        self,
        store,
        inventory: Inventory,
        project: str | None = None,
        quota_tree=None,
        strict_conflicts: bool = True,
    ) -> None:
        self.store = store
        self.inventory = inventory
        self.project = project
        self.quota_tree = quota_tree
        self.strict_conflicts = strict_conflicts
        self.applications: dict[str, Application] = {}
        self.units: dict[str, Unit] = {}
        self.relations: dict[str, Relation] = {}
        self.event_queue: deque[Event] = deque()
        self.generation = 0
        self.machines: set[str] = set()  # provider machine ids this model owns
        self.machine_charges: dict[str, QuotaSet] = {}
        self.shadow_check = False
        self.shadow_deltas = 0
        self.trace: list[dict] | None = None
        self._unit_index: dict[str, list[str]] = {}
        self._machine_units: dict[str, set[str]] = {}
        self._leader_check: set[str] = set()

    @property
    def converged(self) -> bool:
        return not self.event_queue

    # -- small helpers -------------------------------------------------

    def unit_ids_of(self, app: str) -> list[str]:
        units = self.units
        return [unit_id for unit_id in self._unit_index.get(app, ()) if unit_id in units]

    def relations_of(self, app: str, endpoint: str | None = None) -> list[Relation]:
        found = []
        for rel_id in sorted(self.relations):
            relation = self.relations[rel_id]
            app_endpoint = relation.endpoint_of(app)
            if app_endpoint is None:
                continue
            if endpoint is not None and app_endpoint != endpoint:
                continue
            found.append(relation)
        return found


def unit_sort_key(unit_id: str):
    """Orders unit ids by application, then by index: ``moodle/2`` before
    ``moodle/10``."""
    app, _, index = unit_id.partition("/")
    return (app, int(index))


# ---------------------------------------------------------------------------
# Results


class StepReport(NamedTuple):
    """What one ``step`` did.  A named tuple: it is built once per event,
    and costs about half what a frozen dataclass does.  ``event`` is the
    event processed, or None on an empty queue."""

    event: Event | None
    handlers_run: int = 0
    actions_applied: int = 0
    dropped: bool = False
    emitted: int = 0
    redelivered: int = 0


# ``step`` builds its reports with ``tuple.__new__``, which skips the named
# tuple's Python-level ``__new__``, and shares one report for an empty queue.
_new_report = tuple.__new__
_NO_EVENT = StepReport(None)


@dataclass(frozen=True)
class ConvergenceResult:
    outcome: str  # "converged" | "budget-exhausted"
    events_processed: int

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"


@dataclass(frozen=True)
class DeploymentResult:
    machine_map: dict[str, str]  # bundle-local id -> provider id
    units: tuple[str, ...]
    relations: tuple[str, ...]


# ---------------------------------------------------------------------------
# Commands


def deploy_bundle(model: Model, bundle: Bundle) -> DeploymentResult:
    """Apply a bundle to the model: apply each step of
    ``bundle.lower_bundle`` with ``apply_step``, relations in bundle order.

    Enqueues install (and leader-elected / relation-joined) events; it does
    not run the engine.  Quota follows the accounting rule of
    ``_undo_on_failure``: a machine's declared constraints are charged
    when it is acquired and released when it is released, instances are
    charged one per unit, and a deploy that fails at any point rolls back
    completely.
    """
    steps = lower_bundle(bundle, model.store, DeploymentError)
    for name in bundle.applications:
        if name in model.applications:
            raise DeploymentError(f"application {name!r} already deployed")

    machine_map: dict[str, str] = {}
    with _undo_on_failure(model) as log:
        _charge(model, log, QuotaSet(instances=sum(isinstance(s, InstallUnit) for s in steps)))
        made = [apply_step(model, log, planned, machine_map) for planned in steps]
    return DeploymentResult(
        {alias: machine_map[alias] for alias in machine_map if alias in bundle.machines},
        tuple(ident for planned, ident in zip(steps, made) if isinstance(planned, InstallUnit)),
        tuple(ident for planned, ident in zip(steps, made) if isinstance(planned, JoinRelation)),
    )


# ---------------------------------------------------------------------------
# Materialising applications: machines, containers and units, with quota
# and undo.  ``apply_step`` (for ``deploy_bundle`` and ``plan.execute_plan``)
# and ``add_unit`` create machines, containers, applications and units only
# through these helpers, and each helper logs how to undo what it did.

UndoLog = list[Callable[[], None]]


@contextmanager
def _undo_on_failure(model: Model) -> Iterator[UndoLog]:
    """Run one command with an undo log.  On a ``FedweaveError`` the log is
    replayed newest first and the event queue restored, then the error
    propagates.  The accounting rule the helpers keep:

    * acquiring a machine charges its declared constraints (cpu-cores as
      vcpus, mem as ram, root-disk as disk in GiB, rounded up), and
      releasing the machine releases exactly that charge;
    * instances are charged per unit: once per command for the units it
      creates, and released one per removed unit;
    * a failed command rolls back completely, so the model, its inventory
      and the quota tree are left exactly as they were.
    """
    log: UndoLog = []
    queue = list(model.event_queue)
    try:
        yield log
    except FedweaveError:
        for undo in reversed(log):
            undo()
        model.event_queue.clear()
        model.event_queue.extend(queue)
        raise


def _charge(model: Model, log: UndoLog, amount: QuotaSet) -> bool:
    """Charge the model's project, if it has one; True when charged."""
    if model.project is None or model.quota_tree is None or amount == ZERO:
        return False
    model.quota_tree.charge(model.project, amount)
    log.append(partial(model.quota_tree.release, model.project, amount))
    return True


def _release(model: Model, log: UndoLog, amount: QuotaSet) -> None:
    """Release from the model's project, if it has one; the undo charges
    the amount back, which always fits where it was held before."""
    if model.project is None or model.quota_tree is None:
        return
    model.quota_tree.release(model.project, amount)
    log.append(partial(model.quota_tree.charge, model.project, amount))


def _hold(model: Model, log: UndoLog, machine_id: str) -> str:
    if machine_id not in model.machines:
        model.machines.add(machine_id)
        log.append(partial(model.machines.discard, machine_id))
    return machine_id


def _acquire(
    model: Model, log: UndoLog, constraints: Constraints, series: str | None = None,
    machine: str | None = None,
) -> str:
    """Acquire a best-fit machine (or the named one), give it ``series``
    when one is given, and charge its declared constraints."""
    record = model.inventory.acquire(constraints, machine=machine)
    previous = record.series

    def undo() -> None:
        record.series = previous
        model.inventory.release(record.id)

    log.append(undo)
    if series is not None:
        record.series = series
    _hold(model, log, record.id)
    # Constraints are MiB; quota disk is GiB.  Partial GiB rounds up.
    vcpus, ram, disk = constraints.cpu_cores, constraints.mem, -(-(constraints.root_disk or 0) // 1024)
    charge = QuotaSet(vcpus=vcpus or 0, ram=ram or 0, disk=disk) if vcpus or ram or disk else ZERO
    if _charge(model, log, charge):
        model.machine_charges[record.id] = charge
        log.append(partial(model.machine_charges.pop, record.id))
    return record.id


def _create_container(model: Model, log: UndoLog, host_id: str, kind: str) -> str:
    host = model.inventory.machines.get(host_id)
    counters = dict(host.container_counters) if host is not None else {}
    container = model.inventory.create_container(host_id, kind)

    def undo() -> None:  # release does not rewind the counter, which the dump shows
        model.inventory.release(container.id)
        host.container_counters = counters

    log.append(undo)
    return _hold(model, log, container.id)


def _place(model: Model, log: UndoLog, placement: Placement | None, app: Application) -> str:
    """The machine a new unit of ``app`` goes on: a provider machine or a
    container on one, whose series its charm must support.  Without a
    placement the unit gets a fresh unconstrained machine of the
    application's series, which its deploy checked, so no charm is read."""
    if placement is None or placement.kind == "fresh":
        return _acquire(model, log, Constraints(), app.series)
    target = placement.machine
    if target not in model.inventory.machines:
        raise UnknownEntityError(f"unknown machine {target!r}")
    if placement.kind == "container":
        machine_id = _create_container(model, log, target, placement.container_kind)
    elif model.inventory.machines[target].state == "ready":
        machine_id = _acquire(model, log, Constraints(), machine=target)
    else:
        machine_id = _hold(model, log, target)
    _check_series(model, machine_id, app.charm)
    return machine_id


def _check_series(model: Model, machine_id: str, charm: CharmSpec) -> None:
    series = model.inventory.machines[machine_id].series
    if series not in charm.series:
        raise DeploymentError(
            f"charm {charm.name!r} does not support series {series!r} "
            f"of machine {machine_id!r}"
        )


def _create_application(
    model: Model, log: UndoLog, name: str, charm_ref: str, charm: CharmSpec, series: str,
    exposed: bool,
) -> Application:
    """Add an application with the charm's default config."""
    app = Application(name=name, charm_ref=charm_ref, series=series, store=model.store,
                      config=charm.default_config(), exposed=exposed)
    app.charm = charm
    model.applications[name] = app

    def undo() -> None:
        del model.applications[name]
        model._unit_index.pop(name, None)

    log.append(undo)
    return app


def _create_unit(model: Model, log: UndoLog, app: Application, machine_id: str) -> Unit:
    unit = Unit(id=f"{app.name}/{app.unit_counter}", app=app.name, machine=machine_id)
    app.unit_counter += 1
    model.units[unit.id] = unit
    model._unit_index.setdefault(app.name, []).append(unit.id)
    model._machine_units.setdefault(machine_id, set()).add(unit.id)
    for relation in model.relations_of(app.name):
        relation.data.setdefault(unit.id, {})

    def undo() -> None:
        _discard_unit(model, unit.id)
        for relation in model.relations_of(app.name):
            relation.data.pop(unit.id, None)
        app.unit_counter -= 1

    log.append(undo)
    return unit


def _discard_unit(model: Model, unit_id: str) -> Unit:
    """Take a unit out of the model, the unit index and the machine
    occupancy index; relation data bags are the caller's to drop."""
    unit = model.units.pop(unit_id)
    model._unit_index[unit.app].remove(unit_id)
    occupants = model._machine_units[unit.machine]
    occupants.discard(unit_id)
    if not occupants:
        del model._machine_units[unit.machine]
    return unit


def apply_step(model: Model, log: UndoLog, planned: PlanStep, machine_map: dict[str, str]) -> str:
    """Apply one lowered step: the only code that turns a step into
    machines, containers, applications, units and relations.  Returns the
    id of what it made; ``machine_map`` maps earlier steps' machine aliases
    to provider ids.  A name no earlier step made, an existing application
    or a unit out of index order (``app/0``, then ``app/1``, ...) raises."""
    if isinstance(planned, AcquireMachine):
        machine_map[planned.machine] = _acquire(model, log, planned.constraints, planned.series)
        return machine_map[planned.machine]
    if isinstance(planned, CreateContainer):
        host = _machine(machine_map, planned.host)
        machine_map[planned.alias] = _create_container(model, log, host, planned.kind)
        return machine_map[planned.alias]
    if isinstance(planned, AddApplication):
        if planned.application in model.applications:
            raise EngineError(f"application {planned.application!r} already exists")
        charm = model.store.resolve_charm(planned.charm)
        _create_application(model, log, planned.application, planned.charm, charm,
                            planned.series, planned.expose)
        set_config(model, planned.application, dict(planned.options))
        return planned.application
    if isinstance(planned, InstallUnit):
        app_name = planned.unit.partition("/")[0]
        machine_id = _machine(machine_map, planned.machine)
        app = model.applications.get(app_name)
        if app is None:
            raise UnknownEntityError(
                f"unknown application {app_name!r}: no earlier step adds it")
        next_unit = f"{app_name}/{app.unit_counter}"
        if planned.unit != next_unit:
            raise EngineError(f"unit {planned.unit!r} is out of order: "
                              f"the next unit of {app_name!r} is {next_unit!r}")
        _check_series(model, machine_id, app.charm)
        unit = _create_unit(model, log, app, machine_id)
        model.event_queue.append(Event(_INSTALL, unit.id))
        _ensure_leader(model, app_name)
        return unit.id
    if isinstance(planned, JoinRelation):
        relation = add_relation(model, planned.provider, planned.requirer)
        log.append(partial(model.relations.pop, relation.id))
        return relation.id
    raise EngineError(f"unknown step {planned!r}")  # pragma: no cover - the step language is closed


def _machine(machine_map: dict[str, str], alias: str) -> str:
    """The provider machine an earlier step made under ``alias``."""
    machine_id = machine_map.get(alias)
    if machine_id is None:
        raise UnknownEntityError(
            f"unknown machine {alias!r}: no earlier step acquires or creates it")
    return machine_id


def add_unit(model: Model, app_name: str, count: int = 1, placement: Placement | None = None) -> list[str]:
    """Scale an application by ``count`` units.

    Placements reference live provider machines (``lxd:3`` means a
    container on provider machine 3); without one, each unit gets a fresh
    unconstrained machine.  A placement on a machine or container whose
    series the charm does not support is refused, as ``apply_step``
    refuses it.  New units receive
    install events, and every relation of the application gains
    relation-joined events on both sides; data already published by remote
    units is re-delivered to the newcomers as relation-changed events.

    Quota follows the accounting rule of ``_undo_on_failure``: a
    machine's declared constraints are charged when it is acquired and
    released when it is released (fresh machines declare none), instances
    are charged one per unit, and an add-unit that fails at any point
    rolls back completely.
    """
    app = model.applications.get(app_name)
    if app is None:
        raise UnknownEntityError(f"unknown application {app_name!r}")
    if count < 1:
        raise EngineError(f"add_unit count must be positive, got {count}")
    with _undo_on_failure(model) as log:
        _charge(model, log, QuotaSet(instances=count))
        new_ids = [
            _create_unit(model, log, app, _place(model, log, placement, app)).id
            for _ in range(count)
        ]
    remote_ids: dict[str, list[str]] = {}
    for unit_id in new_ids:
        model.event_queue.append(Event(_INSTALL, unit_id))
        _ensure_leader(model, app_name)
        _join_existing_relations(model, app, unit_id, remote_ids)
    return new_ids


def _join_existing_relations(
    model: Model, app: Application, unit_id: str, remote_ids: dict[str, list[str]]
) -> None:
    """Join a new unit to every relation of its application.  ``remote_ids``
    caches each remote application's unit ids for the whole command: new
    units join only their own application, never the remote side."""
    queue = model.event_queue
    for relation in model.relations_of(app.name):
        own_endpoint = relation.endpoint_of(app.name)
        other_app = next(a for a in relation.apps() if a != app.name)
        joined = EventKind.relation_joined(own_endpoint)
        remote_joined = EventKind.relation_joined(relation.endpoint_of(other_app))
        changed = EventKind.relation_changed(own_endpoint)
        relation.data.setdefault(unit_id, {})
        remotes = remote_ids.get(other_app)
        if remotes is None:
            remotes = remote_ids[other_app] = model.unit_ids_of(other_app)
        for remote_id in remotes:
            queue.append(Event(joined, unit_id, relation.id, remote_id))
            queue.append(Event(remote_joined, remote_id, relation.id, unit_id))
            if relation.data.get(remote_id):
                queue.append(Event(changed, unit_id, relation.id, remote_id))


def set_config(model: Model, app_name: str, options: dict) -> list[str]:
    """Update application options.  Values are coerced against the charm
    schema; a no-op update (all values already current) enqueues nothing,
    otherwise each unit of the application gets one config-changed event.
    Returns the option names that actually changed."""
    app = model.applications.get(app_name)
    if app is None:
        raise UnknownEntityError(f"unknown application {app_name!r}")
    coerced = {}
    for name, raw in options.items():
        schema = app.charm.config.get(name)
        if schema is None:
            raise EngineError(f"charm {app.charm.name!r} has no option {name!r}")
        coerced[name] = schema.coerce(raw)
    changed = [name for name, value in coerced.items() if app.config.get(name) != value]
    if not changed:
        return []
    app.config.update(coerced)
    kind = EventKind.config_changed()
    for unit_id in model.unit_ids_of(app_name):
        model.event_queue.append(Event(kind, unit_id))
    return sorted(changed)


def add_relation(model: Model, left: str, right: str) -> Relation:
    """Relate two endpoints.  One side must provide and the other require
    the same interface (``bundle.orient_relation``); every existing unit on
    both sides receives a relation-joined event (provider side first)."""
    provider, requirer, interface = orient_relation(
        *_endpoint(model, left), *_endpoint(model, right), EngineError)
    relation_id = f"{provider.render()} {requirer.render()}"
    if relation_id in model.relations:
        raise EngineError(f"relation {relation_id!r} already exists")
    relation = Relation(relation_id, provider.render(), requirer.render(), interface)
    model.relations[relation_id] = relation
    provider_units = model.unit_ids_of(provider.application)
    requirer_units = model.unit_ids_of(requirer.application)
    for unit_id in provider_units + requirer_units:
        relation.data.setdefault(unit_id, {})
    queue = model.event_queue
    for side, units, remotes in (
        (provider, provider_units, requirer_units),
        (requirer, requirer_units, provider_units),
    ):
        kind = EventKind.relation_joined(side.endpoint)
        for unit_id in units:
            for remote_id in remotes:
                queue.append(Event(kind, unit_id, relation_id, remote_id))
    return relation


def _endpoint(model: Model, text: str) -> tuple[EndpointRef, CharmSpec]:
    """An ``application:endpoint`` of the model, and the application's charm."""
    app_name, sep, endpoint = text.partition(":")
    if not sep or not app_name or not endpoint:
        raise EngineError(f"malformed endpoint {text!r} (want application:endpoint)")
    app = model.applications.get(app_name)
    if app is None:
        raise UnknownEntityError(f"unknown application {app_name!r}")
    return EndpointRef(app_name, endpoint), app.charm


def remove_unit(model: Model, unit_id: str) -> None:
    """Remove a unit.  Remote units get relation-departed events; the
    unit's machine is released when nothing else occupies it, and so is a
    released container's host, with the charge it was acquired with.  The
    unit's instance is released.  If the unit led its application, the
    next step re-elects a leader.

    Only the quota releases can fail (an operator may have released the
    usage by hand), so they run first, under an undo log: a removal that
    fails leaves the model, its queue, the inventory and the quota tree as
    they were."""
    unit = model.units.get(unit_id)
    if unit is None:
        raise UnknownEntityError(f"unknown unit {unit_id!r}")
    freed = _freed_machines(model, unit)
    with _undo_on_failure(model) as log:
        _release(model, log, QuotaSet(instances=1))
        for machine_id in freed:
            charge = model.machine_charges.get(machine_id)
            if charge is not None:
                _release(model, log, charge)
    app = model.applications[unit.app]
    for relation in model.relations_of(app.name):
        other_app = next(a for a in relation.apps() if a != app.name)
        kind = EventKind.relation_departed(relation.endpoint_of(other_app))
        relation.data.pop(unit_id, None)
        for remote_id in model.unit_ids_of(other_app):
            if remote_id == unit_id:
                continue
            model.event_queue.append(Event(kind, remote_id, relation.id, unit_id))
    _discard_unit(model, unit_id)
    if unit.leader:
        model._leader_check.add(app.name)
    for machine_id in freed:
        model.inventory.release(machine_id)
        model.machines.discard(machine_id)
        model.machine_charges.pop(machine_id, None)


def _freed_machines(model: Model, unit: Unit) -> list[str]:
    """The machines removing ``unit`` leaves idle, in release order: its
    machine when no other unit sits on it and it hosts no container, then,
    when that is a container, its host if the model owns it and nothing
    else occupies it.  So the order units are removed in does not decide
    what stays held."""
    freed: list[str] = []
    machine_id = unit.machine
    while True:
        record = model.inventory.machines.get(machine_id)
        if record is None or any(c not in freed for c in record.containers):
            return freed
        if any(u != unit.id for u in model._machine_units.get(machine_id, ())):
            return freed
        freed.append(machine_id)
        if record.parent is None or record.parent not in model.machines:
            return freed
        machine_id = record.parent


def elect_leader(model: Model, app_name: str) -> str:
    """Make the lowest-index unit the leader and enqueue leader-elected."""
    app = model.applications.get(app_name)
    if app is None:
        raise UnknownEntityError(f"unknown application {app_name!r}")
    unit_ids = model.unit_ids_of(app_name)
    if not unit_ids:
        raise EngineError(f"application {app_name!r} has no units to lead")
    if any(model.units[u].leader for u in unit_ids):
        raise EngineError(f"application {app_name!r} already has a leader")
    leader_id = unit_ids[0]
    model.units[leader_id].leader = True
    model.event_queue.append(Event(EventKind.leader_elected(), leader_id))
    return leader_id


def _needs_leader(model: Model, app_name: str) -> bool:
    """Whether the application has a live unit and none of them leads.

    The walk goes up the unit index, skipping ids whose unit is gone, and
    stops at the first leader.  The leader is the lowest live index, so
    it normally stops at once: the cost does not grow with the application.
    """
    units = model.units
    live = False
    for unit_id in model._unit_index.get(app_name, ()):
        unit = units.get(unit_id)
        if unit is not None:
            if unit.leader:
                return False
            live = True
    return live


def _ensure_leader(model: Model, app_name: str) -> None:
    if _needs_leader(model, app_name):
        elect_leader(model, app_name)


def update_status(model: Model, app_name: str | None = None) -> int:
    """Enqueue an update-status event for every unit (of one application,
    or of the whole model).  Returns the number of events enqueued."""
    if app_name is not None and app_name not in model.applications:
        raise UnknownEntityError(f"unknown application {app_name!r}")
    unit_ids = sorted(model.units, key=unit_sort_key)
    if app_name is not None:
        unit_ids = [u for u in unit_ids if model.units[u].app == app_name]
    kind = EventKind.update_status()
    for unit_id in unit_ids:
        model.event_queue.append(Event(kind, unit_id))
    return len(unit_ids)


# ---------------------------------------------------------------------------
# The step


class _ConflictTracker:
    """Detects two handlers writing different values to one location
    within a single step."""

    def __init__(self) -> None:
        self._writes: dict[tuple, tuple[int, object]] = {}

    def record(self, handler_index: int, location: tuple, value: object) -> None:
        previous = self._writes.get(location)
        if previous is not None:
            prev_handler, prev_value = previous
            if prev_handler != handler_index and prev_value != value:
                raise CharmConflictError(
                    f"handlers wrote conflicting values to {location}: "
                    f"{prev_value!r} vs {value!r}"
                )
        self._writes[location] = (handler_index, value)


class _HandlerFailed(Exception):
    """Internal: aborts the remaining actions of one handler."""


def step(model: Model, rng_seed: int | None = None, _rng: random.Random | None = None) -> StepReport:
    """Process one event from the queue.

    Leader maintenance runs first (an application left leaderless by a
    removal or restored from a checkpoint gets a new leader).  An empty
    queue is a no-op.  Events whose target unit no longer exists are
    dropped with a notice.

    A step pays only for what its event causes.  An event that matches no
    handler runs no action, so it sets no flag and writes no bag: it can
    emit no relation-changed event (those follow a changed bag) and
    re-deliver nothing (redelivery follows an added flag).  Such a step
    records the event as seen, seeds ``start`` after ``install`` and
    traces the event, and does nothing else.

    Only two or more matching handlers have an order to choose, so only
    they are shuffled: by ``_rng`` when one is passed, else by a
    ``random.Random(rng_seed)`` built for them.  Shuffling fewer draws no
    random number, so skipping it leaves ``_rng`` in the state it would
    have reached, and a generator built for one step is thrown away when
    the step returns.  An event kind with one handler has its guard tested
    without building a list.

    A step with one matching handler runs it without conflict tracking.
    A conflict is two different handlers writing different values to one
    location, so a lone handler cannot conflict, even in strict mode: it
    may set one status and then another.  Two or more handlers are
    tracked in strict mode, the only mode in which a conflict raises.
    """
    if model._leader_check:
        for app_name in sorted(model._leader_check):
            _ensure_leader(model, app_name)
        model._leader_check.clear()
    queue = model.event_queue
    if not queue:
        return _NO_EVENT
    # The charm is read, and the unit's seen groups are taken over, before
    # the event is taken: a charm that fails to resolve on first use, or a
    # malformed ``seen``, leaves the queue and the model as they were.
    unit = model.units.get(queue[0].target)
    charm = model.applications[unit.app].charm if unit is not None else None
    if unit is not None and not unit.seen_owned:  # copy what a load or checkpoint shares
        unit.seen = [[*group[:3], group[3].copy()]
                     for group in seen_groups.normalized(unit.id, unit.seen)]
        unit.seen_owned = True
    event = queue.popleft()
    model.generation += 1
    if unit is None:
        logger.info("dropping %s: target unit no longer exists", event.render())
        return _new_report(StepReport, (event, 0, 0, True, 0, 0))

    kind = event.kind
    # Record the event as seen: ``bisect`` finds its group, and its
    # remote's place in the group.
    seen, remote, payload = unit.seen, event.remote, event.payload
    key = [kind.kind, kind.name, payload]
    at = bisect.bisect_left(seen, key)  # a 3-list sorts just before its group
    group = seen[at] if at < len(seen) else None
    if (group is not None and group[2] == payload and group[1] == kind.name
            and group[0] == kind.kind):
        remotes = group[3]
        place = bisect.bisect_left(remotes, remote)
        if place == len(remotes) or remotes[place] != remote:
            remotes.insert(place, remote)
    else:
        key.append([remote])
        seen.insert(at, key)
    states = unit.states
    handlers = charm.dispatch.get(kind)
    if handlers is None:
        matching = ()
    elif len(handlers) == 1:
        matching = handlers if handlers[0][1].when_states <= states else ()
    else:
        matching = [pair for pair in handlers if pair[1].when_states <= states]
        if len(matching) > 1:
            if _rng is None:
                _rng = random.Random(DEFAULT_SEED if rng_seed is None else rng_seed)
            _rng.shuffle(matching)
    if not matching:
        if kind == _INSTALL:
            queue.append(Event(_START, unit.id))
        if model.trace is not None:
            _trace_step(model, event, unit, 0, ())
        return _new_report(StepReport, (event, 0, 0, False, 0, 0))

    flags_before = states.copy()
    tracker = _ConflictTracker() if model.strict_conflicts and len(matching) > 1 else None
    changed_bags: set[tuple[str, str]] = set()  # (relation id, writer unit id)
    actions_applied = 0
    for index, handler in matching:
        try:
            for action in handler.actions:
                actions_applied += 1
                _apply_action(model, unit, event, index, action, tracker, changed_bags)
        except _HandlerFailed:
            pass
        if model.shadow_check:
            model.shadow_deltas += _shadow_delta(model, unit, event, handler)

    emitted = _emit_changed(model, changed_bags) if changed_bags else 0
    if kind == _INSTALL:
        queue.append(Event(_START, unit.id))
    added = states - flags_before
    redelivered = _redeliver(model, unit, charm, added, flags_before) if added else 0
    if model.trace is not None:
        _trace_step(model, event, unit, len(matching), changed_bags)
    return _new_report(StepReport,
                       (event, len(matching), actions_applied, False, emitted, redelivered))


def _trace_step(model: Model, event: Event, unit: Unit, handlers: int, changed_bags) -> None:
    model.trace.append(
        {
            "generation": model.generation,
            "event": event.key(),
            "target": unit.id,
            "handlers": handlers,
            "writes": sorted(changed_bags),
        }
    )


def _apply_action(
    model: Model,
    unit: Unit,
    event: Event,
    handler_index: int,
    action,
    tracker: _ConflictTracker | None,
    changed_bags: set[tuple[str, str]],
) -> None:
    """Apply one action to ``unit``, recording its writes with ``tracker``
    unless that is None.  Actions are tested by exact type, most frequent
    first: the action classes are final, and a fleet deploy runs thousands."""
    kind = type(action)
    if kind is SetRelationData:
        value = action.value
        if "{" in value:  # a template: ``resolve_template`` returns any other value as it is
            remote_bag = None
            if event.payload and event.remote:
                relation = model.relations.get(event.payload)
                if relation is not None:
                    remote_bag = relation.data.get(event.remote)
            value = resolve_template(value, model.applications[unit.app].config, remote_bag)
        for relation in _data_targets(model, unit, event, action.endpoint):
            if tracker is not None:
                tracker.record(
                    handler_index, ("relation-data", relation.id, unit.id, action.key), value
                )
            bag = relation.data.setdefault(unit.id, {})
            if bag.get(action.key) != value:
                bag[action.key] = value
                changed_bags.add((relation.id, unit.id))
    elif kind is SetState:
        if tracker is not None:
            tracker.record(handler_index, ("state", unit.id, action.flag), True)
        unit.states.add(action.flag)
    elif kind is SetUnitStatus:
        if tracker is not None:
            tracker.record(handler_index, ("status", unit.id), action.status)
        unit.status = action.status
        unit.message = ""
    elif kind is ClearState:
        if tracker is not None:
            tracker.record(handler_index, ("state", unit.id, action.flag), False)
        unit.states.discard(action.flag)
    elif kind is OpenPort:
        unit.open_ports.add(action.port)
    elif kind is Fail:
        if tracker is not None:
            tracker.record(handler_index, ("status", unit.id), "error")
        unit.status = "error"
        unit.message = action.message
        raise _HandlerFailed()
    else:  # pragma: no cover - the action language is closed
        raise EngineError(f"unknown action {action!r}")


def _data_targets(model: Model, unit: Unit, event: Event, endpoint: str) -> list[Relation]:
    """Relations a set-relation-data action writes to.

    Inside a relation event whose relation sits on the named endpoint, the
    write targets that relation only; otherwise it targets every current
    relation on the endpoint (a re-publish, e.g. from config-changed).
    """
    if event.payload:
        relation = model.relations.get(event.payload)
        if relation is not None and relation.endpoint_of(unit.app) == endpoint:
            return [relation]
    return model.relations_of(unit.app, endpoint)


def _emit_changed(model: Model, changed_bags: set[tuple[str, str]]) -> int:
    """One relation-changed event per remote unit per changed bag."""
    emitted = 0
    for relation_id, writer_id in sorted(changed_bags):
        relation = model.relations[relation_id]
        writer_app = model.units[writer_id].app
        other_app = next(a for a in relation.apps() if a != writer_app)
        kind = EventKind.relation_changed(relation.endpoint_of(other_app))
        for remote_unit in model.unit_ids_of(other_app):
            if remote_unit == writer_id:
                continue
            model.event_queue.append(Event(kind, remote_unit, relation_id, writer_id))
            emitted += 1
    return emitted


def _redeliver(
    model: Model, unit: Unit, charm: CharmSpec, added: set[str], flags_before: frozenset[str]
) -> int:
    """Re-enqueue seen events whose handlers' guards newly became
    satisfiable after this step added the flags ``added``.

    A guard that holds now and did not before names a flag this step
    added, so only the groups of the kinds the charm guards with an added
    flag are visited, in key order.  Whether an event is re-delivered does
    not depend on its payload or remote, so each kind's handlers are
    looked at once.
    """
    states = unit.states
    wanted = {
        (kind.kind, kind.name): kind
        for flag in added
        for kind in charm.guarded_kinds.get(flag, ())
    }
    seen = unit.seen
    redelivered = 0
    for key in sorted(wanted):
        prefix = list(key)
        at = bisect.bisect_left(seen, prefix)  # the first group of this kind, if any
        if at == len(seen) or seen[at][:2] != prefix:
            continue
        kind = wanted[key]
        for _, handler in charm.dispatch[kind]:
            if handler.when_states <= states and not handler.when_states <= flags_before:
                break
        else:
            continue  # no handler of this kind became ready
        while at < len(seen) and seen[at][:2] == prefix:
            _, _, payload, remotes = seen[at]
            for remote in remotes:
                model.event_queue.append(Event(kind, unit.id, payload, remote))
            redelivered += len(remotes)
            at += 1
    return redelivered


def _shadow_delta(model: Model, unit: Unit, event: Event, handler: HookHandler) -> int:
    """Re-apply a handler's actions to the post-state and report whether
    anything observable changed: 0 for an idempotent handler, else 1.

    The check covers exactly what an action can write.  ``_apply_action``
    writes the target unit's ``status``, ``message``, ``states`` and
    ``open_ports``, and, for ``set-relation-data``, that unit's own bag in
    the relations ``_data_targets`` returns, all of them relations of the
    unit's application.  It never writes the inventory, the queue,
    ``seen``, ``generation``, another unit's bag or a machine.  So only
    those fields are snapshotted (each bag copied, ``None`` where the unit
    has no bag yet), the actions are re-applied in place, and the
    snapshots are compared.  On a difference exactly what the handler left
    is restored: sets and bags in place, a bag the re-application created
    removed.  The model ends as the handler left it either way.
    """
    relations: dict[str, Relation] = {}
    for action in handler.actions:
        if isinstance(action, SetRelationData):
            for relation in _data_targets(model, unit, event, action.endpoint):
                relations[relation.id] = relation

    def snapshot() -> tuple:
        bags = []
        for relation in relations.values():
            bag = relation.data.get(unit.id)
            bags.append(None if bag is None else dict(bag))
        return (unit.status, unit.message, set(unit.states), set(unit.open_ports), bags)

    before = snapshot()
    try:
        for action in handler.actions:
            _apply_action(model, unit, event, 0, action, None, set())
    except _HandlerFailed:
        pass
    if snapshot() == before:
        return 0

    unit.status, unit.message, states, open_ports, bags = before
    unit.states.clear()
    unit.states.update(states)
    unit.open_ports.clear()
    unit.open_ports.update(open_ports)
    for relation, bag in zip(relations.values(), bags):
        if bag is None:
            relation.data.pop(unit.id, None)
        else:
            live = relation.data[unit.id]
            live.clear()
            live.update(bag)
    return 1


def run_to_convergence(
    model: Model, budget: int = DEFAULT_BUDGET, rng_seed: int = DEFAULT_SEED
) -> ConvergenceResult:
    """Step until the queue drains; give up after ``budget`` events."""
    if budget < 1:
        raise EngineError(f"budget must be positive, got {budget}")
    rng = random.Random(rng_seed)
    processed = 0
    while processed < budget:
        report = step(model, _rng=rng)
        if report.event is None:
            return ConvergenceResult("converged", processed)
        processed += 1
    if model.converged and not _maintenance_pending(model):
        return ConvergenceResult("converged", processed)
    return ConvergenceResult("budget-exhausted", processed)


def _maintenance_pending(model: Model) -> bool:
    return any(_needs_leader(model, app_name) for app_name in model.applications)


# ---------------------------------------------------------------------------
# Status and hashing


def status_snapshot(model: Model) -> dict:
    """An immutable point-in-time view: applications, units, machines,
    relations, pending event count, generation and canonical state hash."""
    state = _canonical_state(model)
    digest = hashlib.sha256(_canonical_text(state)).hexdigest()
    state["generation"] = model.generation
    state["state_hash"] = digest
    return state


def _canonical_state(model: Model) -> dict:
    """The observable state the state hash covers.  Every mapping is built
    with its keys in sorted order, so ``_canonical_text`` writes what
    ``json.dumps(sort_keys=True)`` would, without sorting.  Every value is
    a scalar or a list of them, or a relation's data bags of strings:
    ``load_checkpoint`` refuses a document holding anything else."""
    records = model.inventory.machines
    machines = {}
    for machine_id in sorted(model.machines):
        record = records.get(machine_id)
        if record is None:
            continue
        machines[machine_id] = {
            "arch": record.arch,
            "az": record.az,
            "containers": sorted(record.containers, key=machine_sort_key),
            "cores": record.cores,
            "disk": record.disk,
            "mem": record.mem,
            "properties": sorted(record.properties),
            "region": record.region,
            "series": record.series,
            "state": record.state,
        }
    return {
        "applications": {
            name: {
                "charm": app.charm_ref,
                "config": {k: app.config[k] for k in sorted(app.config)},
                "exposed": app.exposed,
                "series": app.series,
                "units": model.unit_ids_of(name),
            }
            for name, app in sorted(model.applications.items())
        },
        "machines": machines,
        "pending_events": len(model.event_queue),
        "relations": {
            relation_id: {
                "data": _relation_data(relation),
                "interface": relation.interface,
                "provider": relation.provider,
                "requirer": relation.requirer,
            }
            for relation_id, relation in sorted(model.relations.items())
        },
        "units": {
            unit_id: {
                "application": unit.app,
                "leader": unit.leader,
                "machine": unit.machine,
                "message": unit.message,
                "open_ports": sorted(unit.open_ports),
                "states": sorted(unit.states),
                "status": unit.status,
            }
            for unit_id, unit in sorted(model.units.items())
        },
    }


def _canonical_text(state: dict) -> bytes:
    """The canonical text of a ``_canonical_state`` document: compact
    JSON, encoded once."""
    return json.dumps(state, separators=(",", ":")).encode("utf-8")


def _relation_data(relation: Relation) -> dict:
    return {unit_id: {k: bag[k] for k in sorted(bag)} for unit_id, bag in sorted(relation.data.items())}


def _relation_docs(model: Model) -> dict:
    return {
        relation_id: {
            "provider": relation.provider,
            "requirer": relation.requirer,
            "interface": relation.interface,
            "data": _relation_data(relation),
        }
        for relation_id, relation in sorted(model.relations.items())
    }


def state_hash(model: Model) -> str:
    """Digest over the canonical sorted serialization of observable state.

    The step counter is excluded: equivalent deployments reached through
    different event histories (e.g. a compiled plan versus a reactive
    deploy) must hash identically.
    """
    return hashlib.sha256(_canonical_text(_canonical_state(model))).hexdigest()


# ---------------------------------------------------------------------------
# Checkpoint / restore


def checkpoint(model: Model, include_inventory: bool = True) -> dict:
    """Serialize the model for resumption: the observable state of units
    and relations that the state hash covers, plus what resuming needs
    (``seen``, ``unit_counter``, the queue, the machine list and any
    machine charges).  Charm bodies are not embedded; a restored
    application resolves its reference against the store.

    A unit's ``seen`` is written as held (see ``Unit.seen``), checked first
    when the unit has not been stepped since the model was loaded or last
    checkpointed, and each queued event as ``[kind, name, target, payload,
    remote]``.  ``load_checkpoint`` also reads the flat ``[kind, name,
    payload, remote]`` seen entries and the one object per queued event of
    older checkpoints."""
    units = {}
    for unit_id, unit in sorted(model.units.items()):
        if not unit.seen_owned:
            unit.seen = seen_groups.normalized(unit_id, unit.seen)
        unit.seen_owned = False  # shared with the document from now on
        units[unit_id] = {
            "application": unit.app,
            "machine": unit.machine,
            "status": unit.status,
            "message": unit.message,
            "leader": unit.leader,
            "states": sorted(unit.states),
            "open_ports": sorted(unit.open_ports),
            "seen": unit.seen,
        }
    doc: dict = {
        "generation": model.generation,
        "project": model.project,
        "strict_conflicts": model.strict_conflicts,
        "applications": {
            name: {
                "charm": app.charm_ref,
                "series": app.series,
                "exposed": app.exposed,
                "unit_counter": app.unit_counter,
                "config": {k: app.config[k] for k in sorted(app.config)},
            }
            for name, app in sorted(model.applications.items())
        },
        "units": units,
        "relations": _relation_docs(model),
        "queue": [
            [event.kind.kind, event.kind.name, event.target, event.payload, event.remote]
            for event in model.event_queue
        ],
        "machines": sorted(model.machines, key=machine_sort_key),
    }
    if model.machine_charges:
        doc["machine_charges"] = {
            machine_id: {k: v for k, v in model.machine_charges[machine_id].as_dict().items() if v}
            for machine_id in sorted(model.machine_charges, key=machine_sort_key)
        }
    if include_inventory:
        doc["inventory"] = model.inventory.dump()
    return doc


def load_checkpoint(
    doc: dict,
    store,
    inventory: Inventory | None = None,
    quota_tree=None,
) -> Model:
    """Rebuild a model from a checkpoint.  The inventory is taken from the
    checkpoint when embedded, else it must be supplied.  No charm is
    resolved here: each application resolves its own on first use, so an
    unknown reference fails the first command or step that needs it.

    Every field read must have the type ``checkpoint`` writes
    (``_CHECKPOINT_TYPES``), so every command and renderer sees only what
    the engine writes; a missing one takes its default.  Each loop tests
    the fields it reads, and when one fails, ``_malformed`` finds the
    field to name in a ``MalformedCheckpointError``.

    A unit's ``seen`` groups are kept as read, after a look at the first,
    which tells them from the flat entries of older checkpoints.  The
    unit's first step, or the next ``checkpoint``, checks them all, so a
    ``status`` does not.  A unit whose id does not name its application,
    whose application the model lacks, or whose index is not below its
    application's ``unit_counter``, raises ``MalformedCheckpointError``:
    the first step would find no application, or the next unit added
    would take a live unit's id.  The counter is checked once per
    application, against its highest index."""
    if inventory is None:
        embedded = doc.get("inventory")
        if embedded is None:
            raise EngineError("checkpoint has no embedded inventory and none was supplied")
        inventory = Inventory.load(embedded)
    generation, strict_conflicts = doc.get("generation", 0), doc.get("strict_conflicts", True)
    project, machines = doc.get("project"), doc.get("machines", _NO_ITEMS)
    sections = applications, units, relations, charges = [
        doc.get(key, _NOTHING) for key in ("applications", "units", "relations",
                                           "machine_charges")]
    queue = doc.get("queue", _NO_ITEMS)
    if not (type(generation) is int and type(strict_conflicts) is bool
            and (project is None or type(project) is str) and type(machines) is list
            and _strings(machines) and type(queue) is list
            and all(type(section) is dict and _strings(section)
                    and _DICT.issuperset(map(type, section.values())) for section in sections)):
        raise _malformed(doc)
    model = Model(
        store,
        inventory,
        project=project,
        quota_tree=quota_tree,
        strict_conflicts=strict_conflicts,
    )
    model.generation = generation
    for name, body in applications.items():
        charm_ref, series = body["charm"], body["series"]
        exposed, unit_counter = body.get("exposed", False), body.get("unit_counter", 0)
        config = body.get("config", _NOTHING)
        if not (type(charm_ref) is str and type(series) is str and type(exposed) is bool
                and type(unit_counter) is int and type(config) is dict and _strings(config)
                and _SCALARS.issuperset(map(type, config.values()))):
            raise _malformed(doc)
        model.applications[name] = Application(
            name=name,
            charm_ref=charm_ref,
            series=series,
            store=store,
            exposed=exposed,
            unit_counter=unit_counter,
            config=dict(config),
        )
    for unit_id, body in units.items():
        app, machine = body["application"], body["machine"]
        status, message = body.get("status", "allocating"), body.get("message", "")
        leader, states = body.get("leader", False), body.get("states", _NO_ITEMS)
        open_ports = body.get("open_ports", _NO_ITEMS)
        if not (type(app) is str and type(machine) is str and type(status) is str
                and type(message) is str and type(leader) is bool and type(states) is list
                and type(open_ports) is list and _strings(states)
                and (not open_ports or all(type(port) is int for port in open_ports))):
            raise _malformed(doc)
        seen = body.get("seen") or []
        if type(seen) is not list or seen and not (type(seen[0]) is list and len(seen[0]) == 4
                                                   and type(seen[0][3]) is list):
            seen = seen_groups.normalized(unit_id, seen)  # flat entries, or a fault in the first
        model.units[unit_id] = Unit(
            id=unit_id,
            app=app,
            machine=machine,
            status=status,
            message=message,
            leader=leader,
            states=set(states),
            open_ports=set(open_ports),
            seen=seen,
            seen_owned=False,
        )
    for unit_id in sorted(model.units, key=unit_sort_key):
        unit = model.units[unit_id]
        app_name = unit_id.partition("/")[0]
        if app_name != unit.app:
            raise MalformedCheckpointError(
                f"unit {unit_id!r} is not a unit of application {unit.app!r}")
        model._unit_index.setdefault(app_name, []).append(unit_id)
        model._machine_units.setdefault(unit.machine, set()).add(unit_id)
    for app_name, unit_ids in model._unit_index.items():
        app = model.applications.get(app_name)
        if app is None:
            raise MalformedCheckpointError(
                f"unit {unit_ids[0]!r} is a unit of application {app_name!r}, "
                "which the model lacks")
        if unit_sort_key(unit_ids[-1])[1] >= app.unit_counter:  # the index is sorted
            stale = next(u for u in unit_ids if unit_sort_key(u)[1] >= app.unit_counter)
            raise MalformedCheckpointError(
                f"application {app_name!r} has unit_counter {app.unit_counter}, "
                f"not above unit {stale!r}")
    model._leader_check.update(model.applications)
    for relation_id, body in relations.items():
        provider, requirer, interface = body["provider"], body["requirer"], body["interface"]
        try:  # ``dict.items`` and ``dict.copy`` refuse what is not a mapping
            data = {unit_id: dict.copy(bag)
                    for unit_id, bag in dict.items(body.get("data", _NOTHING))}
        except TypeError:
            raise _malformed(doc) from None
        bags = data.values()
        if not (type(provider) is str and type(requirer) is str and type(interface) is str
                and _strings(data) and _strings(chain.from_iterable(bags))
                and _strings(chain.from_iterable(map(dict.values, bags)))):
            raise _malformed(doc)
        model.relations[relation_id] = Relation(
            id=relation_id,
            provider=provider,
            requirer=requirer,
            interface=interface,
            data=data,
        )
    for index, body in enumerate(queue):
        if type(body) is dict:  # one object per event, as older checkpoints wrote them
            body = [body["kind"], body.get("name", ""), body["target"], body.get("payload", ""),
                    body.get("remote", "")]
        if not (type(body) is list and len(body) == 5 and _strings(body)):
            raise (_malformed(body, [str], ("queue", index)) or MalformedCheckpointError(
                f"queue[{index}] must hold 5 items, not {len(body)}"))
        kind, name, target, payload, remote = body
        model.event_queue.append(Event(EventKind(kind, name), target, payload, remote))
    model.machines = set(machines)
    if not all(_strings(body) and _INT.issuperset(map(type, body.values()))
               for body in charges.values()):
        raise _malformed(charges, _CHECKPOINT_TYPES["machine_charges"], ("machine_charges",))
    model.machine_charges = {machine_id: QuotaSet.from_dict(body)
                             for machine_id, body in charges.items()}
    return model


_SCALARS = frozenset({str, int, bool, float})  # a float may be NaN or infinite
#: The type of each field ``load_checkpoint`` reads, as ``checkpoint``
#: writes it: a type (itself, not a subclass: an int is never a bool) or a
#: frozenset of types; ``[t]``, a list of ``t``; ``{str: t}``, a mapping
#: from strings to ``t``; or a record, whose fields may be missing.
_CHECKPOINT_TYPES = {
    "generation": int,
    "strict_conflicts": bool,
    "project": frozenset({str, type(None)}),
    "applications": {str: {"charm": str, "series": str, "exposed": bool, "unit_counter": int,
                           "config": {str: _SCALARS}}},
    "units": {str: {"application": str, "machine": str, "status": str, "message": str,
                    "leader": bool, "states": [str], "open_ports": [int]}},
    "relations": {str: {"provider": str, "requirer": str, "interface": str,
                        "data": {str: {str: str}}}},
    "machines": [str],
    "machine_charges": {str: {str: int}},
    "queue": [[str]],
}
# What a missing mapping or list reads as; the load copies what it keeps.
_NOTHING: dict = {}
_NO_ITEMS: list = []
_DICT = frozenset({dict})
_INT = frozenset({int})
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", float: "a float",
               dict: "a mapping", list: "a list", type(None): "null"}


def _strings(items) -> bool:
    """Whether every item is a string, which ``str.join`` tests in C (a
    subclass of ``str`` passes, and no parsed document holds one)."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _malformed(value, kind=_CHECKPOINT_TYPES, where: tuple = ()) -> MalformedCheckpointError:
    """The error naming the first part of ``value``, a checkpoint or its
    part at ``where``, that is not of type ``kind``; None if there is none."""
    path = where and where[0] + "".join(f"[{key!r}]" for key in where[1:])
    if type(kind) not in (list, dict):
        kinds = kind if type(kind) is frozenset else frozenset({kind})
        if type(value) in kinds:
            return None
        *others, last = [name for known, name in _TYPE_NAMES.items() if known in kinds]
        found = _TYPE_NAMES.get(type(value), f"a {type(value).__name__}")
        return MalformedCheckpointError(
            f"{path} must be {', '.join(others) + ' or ' if others else ''}{last}, not {found}")
    if type(value) is not type(kind):
        return _malformed(value, type(kind), where)
    if type(kind) is list:
        parts = ((item, kind[0], index) for index, item in enumerate(value))
    elif str not in kind:
        parts = ((value[name], field, name) for name, field in kind.items() if name in value)
    elif _strings(value):
        parts = ((item, kind[str], key) for key, item in value.items())
    else:
        key = next(key for key in value if type(key) is not str)
        return MalformedCheckpointError(f"{path} has a key that is not a string: {key!r}")
    return next(filter(None, (_malformed(item, field, (*where, key))
                              for item, field, key in parts)), None)

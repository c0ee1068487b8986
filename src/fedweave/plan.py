"""Compilation of bundles into imperative plans.

Where the reactive engine converges on a bundle, a plan spells out the
equivalent fixed step sequence up front, phase by phase::

    acquire-machine* create-container* add-application* install-unit*
    join-relation*

The steps, their text and ``PlanError`` are ``bundle``'s, re-exported
here.  ``add-application`` creates each application with its options and
expose flag, and ``install-unit`` adds one unit to a machine and enqueues
its install event.  ``engine.apply_step`` applies each step of
``bundle.lower_bundle`` for ``engine.deploy_bundle`` and ``execute_plan``
alike, so a plan replayed on a fresh inventory processes the events of
deploy-and-converge and reaches its state hash.  Steps are deterministic:
sorted by entity id within each phase, with declared machines before
fresh ones and the provider side named first in every relation pair; only
``compile_plan`` sorts the relations, which deploy joins in bundle order.

A plan is a snapshot: it embeds digests of the source bundle and of the
charm specs it compiled against.  Executing it against a store whose
charms have since changed logs a divergence warning — the plan replays its
stale steps regardless, which is exactly the failure mode that makes the
reactive path preferable for long-lived deployments.

The bundle digest is the SHA-256 of the bundle's canonical document (the
document ``render_bundle`` writes as YAML: applications by name, machines
by numeric id, options by name, constraints rendered) serialized as compact
JSON.  It names the source a plan came from; nothing verifies it.  The
charm digest is the SHA-256 of the named charm specs, each with its
reference, as one sorted-key compact JSON list written by one encode, and
execution compares it with the store's.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass

from . import statefile
from .bundle import (AcquireMachine, AddApplication, Bundle, CreateContainer, InstallUnit,
                     JoinRelation, PlanError, PlanStep, _canonical_document, _parse_step_line,
                     _split_line, lower_bundle)
from .charms import CharmError
from .engine import (DEFAULT_BUDGET, DEFAULT_SEED, Model, _charge, _undo_on_failure, apply_step,
                     run_to_convergence)
from .errors import FedweaveError
from .provider import Inventory, machine_sort_key
from .quota import QuotaSet

logger = logging.getLogger(__name__)


class PlanExecutionError(PlanError):
    """A step failed; carries the index of the failing step."""

    def __init__(self, index: int, step: PlanStep, cause: Exception):
        self.index = index
        self.step = step
        self.cause = cause
        super().__init__(f"step {index} ({step.render()}): {cause}")


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
    """Compile a validated bundle into its imperative step sequence: the
    steps ``deploy_bundle`` applies, with the relations sorted."""
    steps = lower_bundle(bundle, store, PlanError)
    joins = sorted((s for s in steps if isinstance(s, JoinRelation)),
                   key=lambda s: (s.provider, s.requirer))
    return ImperativePlan(
        steps=(*(s for s in steps if not isinstance(s, JoinRelation)), *joins),
        bundle_digest=bundle_digest(bundle),
        charm_digest=charm_digest(store, {s.charm for s in steps if isinstance(s, AddApplication)}),
    )


def tagged(value) -> dict:
    """A value JSON has no type for, as a one-key object naming its type."""
    return {type(value).__name__: str(value)}


#: ``json.dumps`` with sorted keys, compact, tagging; built once, since
#: ``json.dumps`` with options builds an encoder on every call.
_DIGEST_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=tagged).encode


def bundle_digest(bundle: Bundle) -> str:
    """SHA-256 of the bundle's canonical document as compact JSON.

    An option value JSON has no type for (a YAML date, timestamp or binary)
    is written as a one-key object naming its type, so it never digests
    like a string."""
    blob = json.dumps(_canonical_document(bundle), separators=(",", ":"), default=tagged)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def charm_digest(store, refs) -> str:
    """Digest over the canonical serialization of the named charm specs:
    the list of their documents, each with its ``ref``, sorted by
    reference, written by one compact sorted-key encode (``_DIGEST_JSON``).
    An option default JSON has no type for is tagged with its type
    (``tagged``)."""
    specs = []
    for ref in sorted(refs):
        spec = store.resolve_charm(ref)
        specs.append({
            "ref": ref,
            "name": spec.name,
            "series": sorted(spec.series),
            "provides": spec.provides,
            "requires": spec.requires,
            "options": {name: {"type": schema.type, "default": schema.default}
                        for name, schema in spec.config.items()},
            "handlers": [
                {"on": handler.on.render(), "when": sorted(handler.when_states),
                 "do": [repr(action) for action in handler.actions]}
                for handler in spec.handlers
            ],
            "storage": list(spec.storage_pools),
        })
    return hashlib.sha256(_DIGEST_JSON(specs).encode("utf-8")).hexdigest()


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
    the store does not hold or cannot name, and on an ``install-unit`` that names any
    unit but its application's next one (``app/0``, then ``app/1``,
    ...).  Raises QuotaExceededError when the plan's units do not fit the
    project's instance quota.  Quota follows the engine's accounting
    rule: a machine's declared constraints are charged when it is acquired
    and released when it is released, instances are charged one per unit,
    and a failed execution, convergence included, rolls back completely,
    leaving the inventory and the quota tree as they were.  When the store's charms named by
    ``add-application`` steps no longer match the digest recorded at
    compile time, a divergence warning is logged and the stale steps are
    executed as written.  Each step is applied by ``engine.apply_step``.
    """
    refs = {s.charm for s in plan.steps if isinstance(s, AddApplication)}
    if refs:
        store.refs()  # a charm file that does not parse fails the store, not a step
    try:
        current_digest = charm_digest(store, refs)
    except CharmError:
        pass  # an unknown or malformed reference: the step that adds it fails below
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
                apply_step(model, log, planned, machine_map)
            except FedweaveError as exc:
                raise PlanExecutionError(index, planned, exc) from exc
        run_to_convergence(model, budget=budget, rng_seed=rng_seed)
    return model


# ---------------------------------------------------------------------------
# Serialization


def parse_plan(text: str | bytes) -> ImperativePlan:
    """Parse the form ``ImperativePlan.render`` produces, one step a line
    (more where a quoted option value holds line breaks); bytes are read
    as UTF-8."""
    try:
        text = statefile.decode(text)
    except statefile.DecodeError as exc:
        raise PlanError(f"malformed plan document: {exc}") from None
    bundle_dig = ""
    charm_dig = ""
    steps: list[PlanStep] = []
    lines = iter(text.splitlines(keepends=True))
    for physical in lines:
        line = physical.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if comment.startswith("bundle-digest:"):
                bundle_dig = comment.partition(":")[2].strip()
            elif comment.startswith("charm-digest:"):
                charm_dig = comment.partition(":")[2].strip()
            continue
        steps.append(_parse_step_line(physical, lines))
    return ImperativePlan(steps=tuple(steps), bundle_digest=bundle_dig, charm_digest=charm_dig)


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

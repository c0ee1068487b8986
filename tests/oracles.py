"""Independent oracles the test suite checks the implementation against.

Everything here is deliberately written from scratch against plain data
(`Inventory.dump()` documents, command logs), not by calling back into the
code under test, so an implementation bug cannot hide in its own oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import weakref

from fedweave.charms import (
    CharmSpec,
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
from fedweave.engine import (
    DEFAULT_SEED,
    EngineError,
    Event,
    Model,
    Relation,
    StepReport,
    Unit,
    _ConflictTracker,
    _ensure_leader,
    _run_handler,
    _shadow_delta,
    checkpoint,
    load_checkpoint,
    logger,
    state_hash,
    step,
)

# ---------------------------------------------------------------------------
# Value templates, by regular expression substitution


_TEMPLATE_RE = re.compile(r"\{(config|remote):([A-Za-z0-9_.-]+)\}")


def resolve_template_oracle(value: str, config: dict, remote_data: dict | None) -> str:
    """The regular-expression resolver ``charms.resolve_template`` replaced:
    every ``{config:name}`` becomes the option's text (None empty, a bool
    ``true``/``false``), every ``{remote:name}`` the remote's value or ""."""

    def substitute(match: re.Match) -> str:
        source, name = match.group(1), match.group(2)
        if source == "config":
            option = config.get(name)
            if option is None:
                return ""
            if isinstance(option, bool):
                return "true" if option else "false"
            return str(option)
        if remote_data is None:
            return ""
        return str(remote_data.get(name, ""))

    return _TEMPLATE_RE.sub(substitute, value)


# ---------------------------------------------------------------------------
# Best-fit placement, by brute force


def _natural_key(machine_id: str):
    return tuple(int(p) if p.isdigit() else p for p in machine_id.split("/"))


def best_fit_oracle(
    inventory_doc: dict,
    constraints: dict,
    region: str | None = None,
    az: str | None = None,
) -> str | None:
    """Enumerate every machine in a dumped inventory and pick the winner.

    Mirrors the documented contract only: ready, top-level, in scope,
    satisfying arch equality / free capacity / tag subset; minimal
    (memory slack, disk slack, natural id) wins; None when empty.
    """
    want_cores = constraints.get("cpu-cores")
    want_mem = constraints.get("mem")
    want_disk = constraints.get("root-disk")
    want_arch = constraints.get("arch")
    want_tags = set(constraints.get("tags") or ())

    best_id = None
    best_key = None
    for machine_id, body in inventory_doc.get("machines", {}).items():
        if body.get("parent"):
            continue
        if body.get("state", "ready") != "ready":
            continue
        if region is not None and body["region"] != region:
            continue
        if az is not None and body["az"] != az:
            continue
        free_cores = body["cores"] - body.get("reserved_cores", 0)
        free_mem = body["mem"] - body.get("reserved_mem", 0)
        free_disk = body["disk"] - body.get("reserved_disk", 0)
        if want_arch is not None and body["arch"] != want_arch:
            continue
        if want_cores is not None and free_cores < want_cores:
            continue
        if want_mem is not None and free_mem < want_mem:
            continue
        if want_disk is not None and free_disk < want_disk:
            continue
        if not want_tags <= set(body.get("properties") or ()):
            continue
        key = (
            free_mem - (want_mem or 0),
            free_disk - (want_disk or 0),
            _natural_key(machine_id),
        )
        if best_key is None or key < best_key:
            best_id, best_key = machine_id, key
    return best_id


def machines_doc(inventory) -> dict:
    """Flatten an Inventory into the plain mapping best_fit_oracle reads.

    Built from record attributes, not Inventory.dump(), so the oracle does
    not depend on the serialization code it is meant to cross-check.
    """
    return {
        "machines": {
            record.id: {
                "region": record.region,
                "az": record.az,
                "arch": record.arch,
                "cores": record.cores,
                "mem": record.mem,
                "disk": record.disk,
                "state": record.state,
                "parent": record.parent,
                "properties": sorted(record.properties),
                "reserved_cores": record.reserved_cores,
                "reserved_mem": record.reserved_mem,
                "reserved_disk": record.reserved_disk,
            }
            for record in inventory.machines.values()
        }
    }


# ---------------------------------------------------------------------------
# Quota rule revalidation


class QuotaMirror:
    """A parallel quota book-keeper that revalidates every rule globally.

    The tree under test decides each mutation in O(1) from local state;
    the mirror instead recomputes the full rule set over plain dicts and
    answers would-this-be-legal.  Decisions must agree on every mutation.
    """

    COMPONENTS = ("vcpus", "ram", "disk", "instances")

    def __init__(self) -> None:
        self.parents: dict[str, str | None] = {}
        self.quotas: dict[str, dict[str, int]] = {}
        self.usage: dict[str, dict[str, int]] = {}

    def add_node(self, node_id: str, parent: str | None) -> None:
        self.parents[node_id] = parent
        self.quotas[node_id] = dict.fromkeys(self.COMPONENTS, 0)
        self.usage[node_id] = dict.fromkeys(self.COMPONENTS, 0)

    def children_of(self, node_id: str) -> list[str]:
        return [n for n, p in self.parents.items() if p == node_id]

    def legal_set_quota(self, node_id: str, quota: dict[str, int]) -> bool:
        for comp in self.COMPONENTS:
            value = quota.get(comp, 0)
            if value < self.usage[node_id][comp]:
                return False
            parent = self.parents[node_id]
            if parent is not None:
                sibling_sum = sum(
                    self.quotas[s][comp]
                    for s in self.children_of(parent)
                    if s != node_id
                )
                if sibling_sum + value > self.quotas[parent][comp]:
                    return False
            child_sum = sum(self.quotas[c][comp] for c in self.children_of(node_id))
            if child_sum > value:
                return False
        return True

    def apply_set_quota(self, node_id: str, quota: dict[str, int]) -> None:
        self.quotas[node_id] = {c: quota.get(c, 0) for c in self.COMPONENTS}

    def legal_charge(self, node_id: str, amount: dict[str, int]) -> bool:
        return all(
            self.usage[node_id][c] + amount.get(c, 0) <= self.quotas[node_id][c]
            for c in self.COMPONENTS
        )

    def apply_charge(self, node_id: str, amount: dict[str, int]) -> None:
        for comp in self.COMPONENTS:
            self.usage[node_id][comp] += amount.get(comp, 0)

    def legal_release(self, node_id: str, amount: dict[str, int]) -> bool:
        return all(
            amount.get(c, 0) <= self.usage[node_id][c] for c in self.COMPONENTS
        )

    def apply_release(self, node_id: str, amount: dict[str, int]) -> None:
        for comp in self.COMPONENTS:
            self.usage[node_id][comp] -= amount.get(comp, 0)

    def check_invariants(self) -> None:
        for node_id in self.parents:
            for comp in self.COMPONENTS:
                child_sum = sum(
                    self.quotas[c][comp] for c in self.children_of(node_id)
                )
                assert child_sum <= self.quotas[node_id][comp], (
                    f"child quotas exceed {node_id} on {comp}"
                )
                assert self.usage[node_id][comp] <= self.quotas[node_id][comp], (
                    f"usage exceeds quota at {node_id} on {comp}"
                )
                assert self.usage[node_id][comp] >= 0


# ---------------------------------------------------------------------------
# Exhaustive interleaving exploration


def _memo_key(doc: dict) -> str:
    trimmed = {
        k: v for k, v in doc.items() if k not in ("generation", "inventory", "queue")
    }
    trimmed["queue"] = sorted(tuple(e) for e in doc["queue"])
    return json.dumps(trimmed, sort_keys=True)


def explore_interleavings(model, branch_limit: int = 8, max_states: int = 250_000):
    """Run every possible event-processing order to a terminal state.

    The queue is drained in arrival order until it is small enough to
    branch on (``branch_limit``), then every choice of next event is
    explored, depth first, memoising states that differ only in step
    counter or queue permutation.  Returns (terminal state hashes,
    distinct states visited, distinct interleavings).
    """
    while len(model.event_queue) > branch_limit:
        step(model)

    store = model.store
    children: dict[str, list[str]] = {}
    terminal_hash: dict[str, str] = {}
    frontier = [checkpoint(model, include_inventory=True)]
    root_key = _memo_key(frontier[0])
    while frontier:
        doc = frontier.pop()
        key = _memo_key(doc)
        if key in children or key in terminal_hash:
            continue
        if len(children) + len(terminal_hash) > max_states:
            raise RuntimeError(f"interleaving space exceeds {max_states} states")

        if not doc["queue"]:
            twin = load_checkpoint(doc, store)
            report = step(twin)  # leader maintenance may still enqueue work
            if report.event is None:
                terminal_hash[key] = state_hash(twin)
            else:
                follow = checkpoint(twin, include_inventory=True)
                children[key] = [_memo_key(follow)]
                frontier.append(follow)
            continue

        branches: list[str] = []
        chosen = set()
        for index, entry in enumerate(doc["queue"]):
            identity = tuple(entry)
            if identity in chosen:  # duplicate pending events are equivalent picks
                continue
            chosen.add(identity)
            twin = load_checkpoint(doc, store)
            twin.event_queue.rotate(-index)
            step(twin)
            follow = checkpoint(twin, include_inventory=True)
            branches.append(_memo_key(follow))
            frontier.append(follow)
        children[key] = branches

    # Count distinct interleavings: paths from the root to any terminal.
    paths: dict[str, int] = {}

    def _paths(key: str) -> int:
        if key in terminal_hash:
            return 1
        cached = paths.get(key)
        if cached is None:
            paths[key] = cached = sum(_paths(child) for child in children[key])
        return cached

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(children) + len(terminal_hash) + 100))
    try:
        n_paths = _paths(root_key)
    finally:
        sys.setrecursionlimit(old_limit)
    n_states = len(children) + len(terminal_hash)
    return set(terminal_hash.values()), n_states, n_paths


# ---------------------------------------------------------------------------
# Idempotence (C04), by whole-model checkpoints


def shadow_delta_oracle(model, unit, event, writes) -> int:
    """Re-apply a handler's compiled writes to a full copy of the model and
    compare.

    The copy is rebuilt from a checkpoint with its inventory, so this sees
    a difference anywhere in the model, not only where a write is known
    to land; the model passed in is never touched.  It reuses the
    engine's handler semantics (the engine's ``_run_handler``, not the
    reference step's copy below) because idempotence is a property of
    those semantics: what it checks independently is the
    scope of the comparison and the restore.  Returns 0 when the copy's
    checkpoint is unchanged, else 1.
    """
    baseline = checkpoint(model, include_inventory=True)
    twin = load_checkpoint(baseline, model.store)
    _run_handler(twin, twin.units[unit.id], event, writes, 0, None, {})
    after = checkpoint(twin, include_inventory=True)
    return 0 if after == baseline else 1


# ---------------------------------------------------------------------------
# Seen events, as a set of keys regrouped whole


def flatten_seen(entries) -> set[tuple[str, str, str, str]]:
    """The ``(kind, name, payload, remote)`` keys of a unit's ``seen``:
    ``checkpoint``'s groups, or the flat entries of older checkpoints."""
    return {(kind, name, payload, remote)
            for kind, name, payload, remotes in entries
            for remote in ([remotes] if isinstance(remotes, str) else remotes)}


def seen_groups_oracle(keys) -> list[list]:
    """A set of seen keys as the groups ``checkpoint`` writes: the keys
    gathered by their first three fields, then everything sorted."""
    groups: dict[tuple[str, str, str], list[str]] = {}
    for kind, name, payload, remote in keys:
        groups.setdefault((kind, name, payload), []).append(remote)
    return [[*key, sorted(groups[key])] for key in sorted(groups)]


_SEEN_KEYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def seen_keys(model: Model) -> dict[str, set[tuple[str, str, str, str]]]:
    """Unit id -> the set of seen keys ``step_oracle`` keeps for a unit of
    ``model``, beside the model.  A unit's set starts from what the unit
    held when the oracle first stepped it."""
    return _SEEN_KEYS.setdefault(model, {})


# ---------------------------------------------------------------------------
# Handler dispatch and redelivery, by linear scan


def handler_matches(handler, kind) -> bool:
    """Whether ``handler`` fires on events of ``kind``."""
    return handler.on == kind


def guard_satisfied(handler, states) -> bool:
    """Whether every flag ``handler`` is guarded on is among ``states``."""
    return handler.when_states <= states


def matching_oracle(charm, kind, states) -> list:
    """Every ``(index, handler)`` of the charm that fires on ``kind`` while
    ``states`` are set, in declaration order: a scan of all its handlers."""
    return [
        (index, handler)
        for index, handler in enumerate(charm.handlers)
        if handler_matches(handler, kind) and guard_satisfied(handler, states)
    ]


def redeliver_oracle(charm, unit_id: str, seen, states, flags_before: frozenset) -> list:
    """The events, in key order, that a handler of the charm accepts under
    ``states`` and did not accept under ``flags_before``: each seen key of
    unit ``unit_id`` rebuilt as the event it was, targeting that unit, and
    scanned against every handler."""
    if frozenset(states) == flags_before:
        return []
    events = []
    for kind, name, payload, remote in sorted(seen):
        event = Event(EventKind(kind, name), unit_id, payload, remote)
        for handler in charm.handlers:
            if not handler_matches(handler, event.kind):
                continue
            if guard_satisfied(handler, states) and not guard_satisfied(handler, flags_before):
                events.append(event)
                break
    return events


# ---------------------------------------------------------------------------
# The reference step: ``engine.step`` as it was before events that match no
# handler skipped the conflict tracker, the flag snapshot, emission and
# redelivery, kept verbatim with the two helpers whose text has changed
# since, and with its own action path, one action at a time
# (``_run_actions``, ``_apply_action`` and ``_data_targets``) where the
# engine applies each handler's compiled writes, so that a fault in the
# engine's compiled form or its handler code cannot hide in the
# reference.  Every step pays for every part here, so the two agreeing
# after every event shows that the skipped work never did anything.  It
# keeps each unit's seen events as a set of keys (``seen_keys``), as the
# engine did before it held the checkpoint's groups, and regroups the
# whole set into ``unit.seen`` after each add.


def step_oracle(model: Model, rng_seed: int | None = None, _rng: random.Random | None = None) -> StepReport:
    """Process one event from the queue.

    Leader maintenance runs first (an application left leaderless by a
    removal or restored from a checkpoint gets a new leader).  An empty
    queue is a no-op.  Events whose target unit no longer exists are
    dropped with a notice.
    """
    for app_name in sorted(model._leader_check):
        _ensure_leader(model, app_name)
    model._leader_check.clear()
    queue = model.event_queue
    if not queue:
        return StepReport(event=None)
    rng = _rng if _rng is not None else random.Random(DEFAULT_SEED if rng_seed is None else rng_seed)
    # The charm is read before the event is taken: a charm that fails to
    # resolve on first use leaves the queue and the model as they were.
    unit = model.units.get(queue[0].target)
    charm = model.applications[unit.app].charm if unit is not None else None
    event = queue.popleft()
    model.generation += 1
    if unit is None:
        logger.info("dropping %s: target unit no longer exists", event.render())
        return StepReport(event=event, dropped=True)

    keys = seen_keys(model).setdefault(unit.id, flatten_seen(unit.seen))
    keys.add(event.key())
    unit.seen = seen_groups_oracle(keys)
    states = unit.states
    flags_before = frozenset(states)
    matching = [
        (index, handler)
        for index, handler in charm.dispatch.get(event.kind, ())
        if handler.when_states <= states
    ]
    rng.shuffle(matching)

    tracker = _ConflictTracker() if model.strict_conflicts else None
    changed_bags: set[tuple[str, str]] = set()  # (relation id, writer unit id)
    actions_applied = 0
    for index, handler in matching:
        actions_applied += _run_actions(model, unit, event, index, handler, tracker, changed_bags)
        if model.shadow_check:
            model.shadow_deltas += _shadow_delta(model, unit, event, charm.writes[index])

    emitted = _emit_changed(model, changed_bags)
    if event.kind == EventKind.install():
        model.event_queue.append(Event(EventKind.start(), unit.id))
    redelivered = _redeliver(model, unit, charm, flags_before)

    if model.trace is not None:
        model.trace.append(
            {
                "generation": model.generation,
                "event": event.key(),
                "target": unit.id,
                "handlers": len(matching),
                "writes": sorted(changed_bags),
            }
        )
    return StepReport(
        event=event,
        handlers_run=len(matching),
        actions_applied=actions_applied,
        emitted=emitted,
        redelivered=redelivered,
    )


class _HandlerFailed(Exception):
    """Aborts the remaining actions of one handler."""


def _run_actions(
    model: Model,
    unit: Unit,
    event: Event,
    handler_index: int,
    handler: HookHandler,
    tracker: _ConflictTracker | None,
    changed_bags: set[tuple[str, str]],
) -> int:
    applied = 0
    try:
        for action in handler.actions:
            _apply_action(model, unit, event, handler_index, action, tracker, changed_bags)
            applied += 1
    except _HandlerFailed:
        applied += 1
    return applied


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
        remote_bag = None
        if event.payload and event.remote:
            relation = model.relations.get(event.payload)
            if relation is not None:
                remote_bag = relation.data.get(event.remote)
        config = model.applications[unit.app].config
        value = resolve_template(action.value, config, remote_bag)
        targets = _data_targets(model, unit, event, action.endpoint)
        for relation in targets:
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


def endpoint_of_oracle(relation, app: str) -> str | None:
    """The endpoint ``app`` has in ``relation``: both sides partitioned on
    every call, the provider's first, so it wins when both sides name
    ``app``."""
    for side in (relation.provider, relation.requirer):
        side_app, _, endpoint = side.partition(":")
        if side_app == app:
            return endpoint
    return None


def _emit_changed(model: Model, changed_bags: set[tuple[str, str]]) -> int:
    """One relation-changed event per remote unit per changed bag."""
    emitted = 0
    for relation_id, writer_id in sorted(changed_bags):
        relation = model.relations[relation_id]
        writer_app = model.units[writer_id].app
        sides = [side.partition(":") for side in (relation.provider, relation.requirer)]
        other_app, _, other_endpoint = next(side for side in sides if side[0] != writer_app)
        for remote_unit in model.unit_ids_of(other_app):
            if remote_unit == writer_id:
                continue
            model.event_queue.append(
                Event(
                    EventKind.relation_changed(other_endpoint),
                    remote_unit,
                    relation_id,
                    writer_id,
                )
            )
            emitted += 1
    return emitted


def _redeliver(model: Model, unit: Unit, charm: CharmSpec, flags_before: frozenset[str]) -> int:
    """Re-enqueue seen events whose handlers' guards newly became
    satisfiable after this step's flag changes.

    A guard that holds now and did not before names a flag this step
    added, so only the seen events of the kinds the charm guards with an
    added flag are visited, in key order, each against its own handlers.
    An event is rebuilt from its key only when it is re-enqueued.
    """
    states = unit.states
    added = states - flags_before
    if not added:
        return 0
    wanted = {
        (kind.kind, kind.name): kind
        for flag in added
        for kind in charm.guarded_kinds.get(flag, ())
    }
    redelivered = 0
    for key in sorted(key for key in seen_keys(model)[unit.id] if key[:2] in wanted):
        kind = wanted[key[:2]]
        for _, handler in charm.dispatch[kind]:
            guard = handler.when_states
            if guard <= states and not guard <= flags_before:
                model.event_queue.append(Event(kind, unit.id, key[2], key[3]))
                redelivered += 1
                break
    return redelivered


# ---------------------------------------------------------------------------
# The canonical state text, sorted by the encoder


def canonical_text_oracle(model: Model) -> bytes:
    """The canonical state text as the state hash first defined it: a
    document built in whatever key order, written by ``json.dumps`` with
    ``sort_keys`` as compact JSON."""
    doc = {
        "applications": {
            name: {
                "charm": app.charm_ref,
                "series": app.series,
                "exposed": app.exposed,
                "config": dict(app.config),
                "units": sorted((unit_id for unit_id, unit in model.units.items() if unit.app == name),
                                key=lambda unit_id: int(unit_id.split("/")[1])),
            }
            for name, app in model.applications.items()
        },
        "units": {
            unit_id: {
                "application": unit.app,
                "machine": unit.machine,
                "status": unit.status,
                "message": unit.message,
                "leader": unit.leader,
                "states": sorted(unit.states),
                "open_ports": sorted(unit.open_ports),
            }
            for unit_id, unit in model.units.items()
        },
        "machines": {
            machine_id: {
                "state": record.state,
                "region": record.region,
                "az": record.az,
                "arch": record.arch,
                "cores": record.cores,
                "mem": record.mem,
                "disk": record.disk,
                "series": record.series,
                "properties": sorted(record.properties),
                "containers": sorted(record.containers, key=_natural_key),
            }
            for machine_id in model.machines
            if (record := model.inventory.machines.get(machine_id)) is not None
        },
        "relations": {
            relation_id: {
                "provider": relation.provider,
                "requirer": relation.requirer,
                "interface": relation.interface,
                "data": {unit_id: dict(bag) for unit_id, bag in relation.data.items()},
            }
            for relation_id, relation in model.relations.items()
        },
        "pending_events": len(model.event_queue),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def status_snapshot_oracle(model: Model) -> dict:
    """A status snapshot from the canonical text as the state hash first
    defined it: that text parsed, with the model's generation and the
    text's digest added.  Compare snapshots by their JSON text, since a
    NaN option value is not equal to itself."""
    hashed = canonical_text_oracle(model)
    snapshot = json.loads(hashed)
    snapshot.update(generation=model.generation, state_hash=hashlib.sha256(hashed).hexdigest())
    return snapshot


# ---------------------------------------------------------------------------
# The charm digest, serialized whole


def charm_digest_oracle(specs: dict) -> str:
    """``plan.charm_digest`` as it was first defined, over ``{ref: spec}``:
    one document of every spec with its reference, sorted by reference, written
    by ``json.dumps`` with ``sort_keys``; a default JSON has no type for
    becomes ``{type name: str(value)}``."""
    canonical = [
        {
            "ref": ref,
            "name": spec.name,
            "series": sorted(spec.series),
            "provides": dict(spec.provides),
            "requires": dict(spec.requires),
            "options": {name: {"type": schema.type, "default": schema.default}
                        for name, schema in spec.config.items()},
            "handlers": [
                {"on": handler.on.render(), "when": sorted(handler.when_states),
                 "do": [repr(action) for action in handler.actions]}
                for handler in spec.handlers
            ],
            "storage": list(spec.storage_pools),
        }
        for ref, spec in sorted(specs.items())
    ]
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"),
                      default=lambda value: {type(value).__name__: str(value)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

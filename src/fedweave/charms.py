"""Charm specifications and the charm store.

A charm declares the endpoints it provides and requires, a config schema,
and a list of guarded hook handlers.  Handlers react to lifecycle events
(install, leader-elected, config-changed, start, update-status), to
relation events named after the charm's own endpoints
(``<name>-relation-joined`` / ``-changed`` / ``-departed``) and to storage
events named after declared pools (``<pool>-storage-attached`` /
``-detaching``).

Handler bodies are written in a closed action language rather than
arbitrary code::

    set-status / set-state / clear-state / set-relation-data /
    open-port / fail

Every action is an absolute write, which makes handlers idempotent by
construction: applying the same action list twice from the same pre-state
yields the same post-state.  Relation-data values may be templates that
reference charm config (``{config:name}``) or, inside relation-event
handlers, data published by the remote unit (``{remote:key}``).

Charm definition files are YAML documents::

    name: postgresql
    series: [xenial]
    provides:
      db: pgsql
    options:
      listen_port: {type: int, default: 5432, description: Server port.}
    handlers:
      - on: db-relation-joined
        when: [installed]
        do:
          - set-relation-data: {endpoint: db, key: port, value: "{config:listen_port}"}
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import statefile
from .errors import FedweaveError

LIFECYCLE_EVENTS = ("install", "leader-elected", "config-changed", "start", "update-status")
RELATION_EVENTS = ("relation-joined", "relation-changed", "relation-departed")
STORAGE_EVENTS = ("storage-attached", "storage-detaching")

#: Statuses a handler may set.  ``allocating`` is reserved for the engine.
SETTABLE_STATUSES = frozenset({"installing", "active", "blocked", "error"})

OPTION_TYPES = ("string", "int", "bool", "float")

_TEMPLATE_RE = re.compile(r"\{(config|remote):([A-Za-z0-9_.-]+)\}")
_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")


class CharmError(FedweaveError):
    """Invalid charm specification or store operation."""

    module = "charm-store"


class CharmNotFoundError(CharmError):
    """The store has no charm under the given reference."""


class OptionTypeError(CharmError):
    """An option value does not coerce to its declared type."""


# ---------------------------------------------------------------------------
# Event kinds


class EventKind(NamedTuple):
    """What happened: a lifecycle, relation, or storage event.

    ``name`` carries the endpoint name for relation events and the pool
    name for storage events; it is empty for lifecycle events.

    A named tuple: the engine looks every event's kind up in a charm's
    dispatch table and compares it with ``install``, and a tuple hashes
    and compares in C where a frozen dataclass runs Python code.
    """

    kind: str
    name: str = ""

    @classmethod
    def install(cls) -> "EventKind":
        return cls("install")

    @classmethod
    def leader_elected(cls) -> "EventKind":
        return cls("leader-elected")

    @classmethod
    def config_changed(cls) -> "EventKind":
        return cls("config-changed")

    @classmethod
    def start(cls) -> "EventKind":
        return cls("start")

    @classmethod
    def update_status(cls) -> "EventKind":
        return cls("update-status")

    @classmethod
    def relation_joined(cls, endpoint: str) -> "EventKind":
        return cls("relation-joined", endpoint)

    @classmethod
    def relation_changed(cls, endpoint: str) -> "EventKind":
        return cls("relation-changed", endpoint)

    @classmethod
    def relation_departed(cls, endpoint: str) -> "EventKind":
        return cls("relation-departed", endpoint)

    def is_relation_event(self) -> bool:
        return self.kind in RELATION_EVENTS

    def render(self) -> str:
        if self.name:
            return f"{self.name}-{self.kind}"
        return self.kind


def parse_event_kind(text: str) -> EventKind:
    """Parse the hook-style spelling, e.g. ``db-relation-joined``."""
    if not isinstance(text, str):
        raise CharmError(f"event name must be a string, got {type(text).__name__}")
    if text in LIFECYCLE_EVENTS:
        return EventKind(text)
    for suffix in RELATION_EVENTS + STORAGE_EVENTS:
        marker = "-" + suffix
        if text.endswith(marker):
            name = text[: -len(marker)]
            if not name:
                raise CharmError(f"event {text!r} is missing its endpoint or pool name")
            return EventKind(suffix, name)
    raise CharmError(f"unknown event kind {text!r}")


# ---------------------------------------------------------------------------
# Hook actions


@dataclass(frozen=True)
class SetUnitStatus:
    status: str


@dataclass(frozen=True)
class SetState:
    flag: str


@dataclass(frozen=True)
class ClearState:
    flag: str


@dataclass(frozen=True)
class SetRelationData:
    endpoint: str
    key: str
    value: str  # may contain {config:...} / {remote:...} templates


@dataclass(frozen=True)
class OpenPort:
    port: int


@dataclass(frozen=True)
class Fail:
    message: str


HookAction = SetUnitStatus | SetState | ClearState | SetRelationData | OpenPort | Fail


def template_references(value: str) -> list[tuple[str, str]]:
    """Return the (source, name) pairs referenced by a value template."""
    return [(source, name) for source, name, _ in _parse_template(value)[1]]


def resolve_template(value: str, config: dict, remote_data: dict | None) -> str:
    """Expand a value template against config and remote relation data.

    Unresolvable ``{remote:...}`` references expand to the empty string so
    that re-running a handler is stable regardless of what the remote unit
    has published so far.  A value with no ``{`` has no reference, and is
    returned as it is.  Each template is parsed once (``_parse_template``).
    """
    if "{" not in value:
        return value
    text, references = _parse_template(value)
    for source, name, tail in references:
        if source == "config":
            text += _option_str(config.get(name))
        elif remote_data is not None:
            text += str(remote_data.get(name, ""))
        text += tail
    return text


@functools.lru_cache(maxsize=256)
def _parse_template(value: str) -> tuple[str, tuple[tuple[str, str, str], ...]]:
    """The literal text before a template's first reference, and a
    (source, name, literal text after it) triple per reference."""
    pieces = _TEMPLATE_RE.split(value)
    return pieces[0], tuple(zip(pieces[1::3], pieces[2::3], pieces[3::3]))


def _option_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# Handlers and charm specs


@dataclass(frozen=True)
class HookHandler:
    """A guarded reaction: run ``actions`` when ``on`` fires and every flag
    in ``when_states`` is set on the unit."""

    on: EventKind
    actions: tuple[HookAction, ...]
    when_states: frozenset[str] = frozenset()


@dataclass(frozen=True)
class OptionSchema:
    type: str
    default: object = None
    description: str = ""

    def coerce(self, value):
        """Coerce a raw scalar (string or YAML native) to the schema type."""
        if self.type == "string":
            return _option_str(value)
        if self.type == "int":
            if isinstance(value, bool):
                raise OptionTypeError(f"expected int, got boolean {value!r}")
            if isinstance(value, int):
                return value
            if isinstance(value, str):
                try:
                    return int(value.strip(), 10)
                except ValueError:
                    raise OptionTypeError(f"expected int, got {value!r}") from None
            raise OptionTypeError(f"expected int, got {value!r}")
        if self.type == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "yes", "on"):
                    return True
                if lowered in ("false", "no", "off"):
                    return False
            raise OptionTypeError(f"expected bool, got {value!r}")
        if self.type == "float":
            if isinstance(value, bool):
                raise OptionTypeError(f"expected float, got boolean {value!r}")
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                try:
                    return float(value.strip())
                except ValueError:
                    raise OptionTypeError(f"expected float, got {value!r}") from None
            raise OptionTypeError(f"expected float, got {value!r}")
        raise OptionTypeError(f"unknown option type {self.type!r}")


@dataclass(frozen=True)
class CharmSpec:
    """A charm: endpoints, config schema, storage pools and handlers.

    Construction also compiles the handlers into two lookup tables the
    engine reads on every step.  ``dispatch`` maps an event kind to its
    ``(index, handler)`` pairs in declaration order; ``guarded_kinds``
    maps a flag to the event kinds whose handlers name it in their guard.
    The spec is immutable, so the tables never go stale; they take no
    part in equality or ``repr`` and are never serialized.
    """

    name: str
    series: frozenset[str]
    provides: dict[str, str] = field(default_factory=dict)
    requires: dict[str, str] = field(default_factory=dict)
    config: dict[str, OptionSchema] = field(default_factory=dict)
    handlers: tuple[HookHandler, ...] = ()
    storage_pools: tuple[str, ...] = ()
    dispatch: dict[EventKind, tuple[tuple[int, HookHandler], ...]] = field(
        init=False, compare=False, repr=False
    )
    guarded_kinds: dict[str, frozenset[EventKind]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        dispatch: dict[EventKind, list[tuple[int, HookHandler]]] = {}
        guarded: dict[str, set[EventKind]] = {}
        for index, handler in enumerate(self.handlers):
            dispatch.setdefault(handler.on, []).append((index, handler))
            for flag in handler.when_states:
                guarded.setdefault(flag, set()).add(handler.on)
        object.__setattr__(
            self, "dispatch", {kind: tuple(pairs) for kind, pairs in dispatch.items()}
        )
        object.__setattr__(
            self, "guarded_kinds", {flag: frozenset(kinds) for flag, kinds in guarded.items()}
        )

    def default_config(self) -> dict:
        return {name: schema.coerce(schema.default) for name, schema in self.config.items()}


def _check_spec(spec: CharmSpec) -> None:
    if not _NAME_RE.match(spec.name):
        raise CharmError(f"invalid charm name {spec.name!r}")
    if not spec.series:
        raise CharmError(f"charm {spec.name!r} declares no series")
    overlap = set(spec.provides) & set(spec.requires)
    if overlap:
        raise CharmError(
            f"charm {spec.name!r} declares endpoint {sorted(overlap)[0]!r} as both provides and requires"
        )
    for name, schema in spec.config.items():
        if schema.type not in OPTION_TYPES:
            raise CharmError(f"option {name!r}: unknown type {schema.type!r}")
        try:
            schema.coerce(schema.default)
        except OptionTypeError as exc:
            raise CharmError(f"option {name!r}: default does not conform: {exc}") from None
    endpoints = {**spec.provides, **spec.requires}
    for handler in spec.handlers:
        _check_handler(spec, handler, endpoints)


def _check_handler(spec: CharmSpec, handler: HookHandler, endpoints: dict[str, str]) -> None:
    on = handler.on
    if on.kind in RELATION_EVENTS and on.name not in endpoints:
        raise CharmError(
            f"charm {spec.name!r}: handler on {on.render()!r} references undeclared endpoint {on.name!r}"
        )
    if on.kind in STORAGE_EVENTS and on.name not in spec.storage_pools:
        raise CharmError(
            f"charm {spec.name!r}: handler on {on.render()!r} references undeclared pool {on.name!r}"
        )
    if on.kind not in LIFECYCLE_EVENTS + RELATION_EVENTS + STORAGE_EVENTS:
        raise CharmError(f"charm {spec.name!r}: unknown event kind {on.kind!r}")
    for action in handler.actions:
        if isinstance(action, SetUnitStatus):
            if action.status not in SETTABLE_STATUSES:
                raise CharmError(
                    f"charm {spec.name!r}: handler may not set status {action.status!r}"
                )
        elif isinstance(action, OpenPort):
            if not 1 <= action.port <= 65535:
                raise CharmError(f"charm {spec.name!r}: port {action.port} out of range")
        elif isinstance(action, SetRelationData):
            if action.endpoint not in endpoints:
                raise CharmError(
                    f"charm {spec.name!r}: set-relation-data targets undeclared endpoint "
                    f"{action.endpoint!r}"
                )
            for source, name in template_references(action.value):
                if source == "config" and name not in spec.config:
                    raise CharmError(
                        f"charm {spec.name!r}: template references unknown option {name!r}"
                    )
                if source == "remote" and not on.is_relation_event():
                    raise CharmError(
                        f"charm {spec.name!r}: {{remote:{name}}} used outside a relation-event handler"
                    )


# ---------------------------------------------------------------------------
# The store


class CharmStore:
    """An append-only registry of charm specifications keyed by reference.

    References are ``cs:name`` or ``cs:~owner/name``.  Registration
    validates the whole spec; resolution is a plain lookup.  The store is
    designed for single-writer use; readers see whole specs only.

    A store may be given a ``loader``: a callable yielding ``(spec,
    owner)`` pairs, which are registered, in order, the first time the
    store is used (``resolve_charm``, ``register_charm``, ``refs`` or
    ``len``).  So a command that never reads a charm never runs it.  A
    loader that raises, or yields a spec that does not register, leaves
    the store as it was, unloaded, and the next use fails the same way.
    The store asks a loader for its next pair only after it has registered
    the last one.  Whether a loader parses charm files or rebuilds specs
    from their compiled form (``uncompile_charm``), every spec goes through
    ``register_charm``, so it is checked, and a reference defined twice
    fails, just as for a spec parsed from its file.
    """

    def __init__(
        self, loader: Callable[[], Iterable[tuple[CharmSpec, str | None]]] | None = None
    ) -> None:
        self._charms: dict[str, CharmSpec] = {}
        self._loader = loader

    def _specs(self) -> dict[str, CharmSpec]:
        if self._loader is not None:
            staged = CharmStore()
            for spec, owner in self._loader():
                staged.register_charm(spec, owner=owner)
            self._charms, self._loader = staged._charms, None
        return self._charms

    def __len__(self) -> int:
        return len(self._specs())

    def refs(self) -> list[str]:
        return sorted(self._specs())

    def register_charm(self, spec: CharmSpec, owner: str | None = None) -> str:
        charms = self._specs()
        _check_spec(spec)
        ref = charm_ref(spec.name, owner)
        if ref in charms:
            raise CharmError(f"charm {ref!r} is already registered")
        charms[ref] = spec
        return ref

    def resolve_charm(self, ref: str) -> CharmSpec:
        charms = self._specs()
        parse_charm_ref(ref)  # validate shape first, for a clearer error
        try:
            return charms[ref]
        except KeyError:
            raise CharmNotFoundError(f"unknown charm reference {ref!r}") from None


def charm_ref(name: str, owner: str | None = None) -> str:
    if owner:
        return f"cs:~{owner}/{name}"
    return f"cs:{name}"


def parse_charm_ref(ref: str) -> tuple[str | None, str]:
    """Split a charm reference into (owner, name)."""
    if not isinstance(ref, str) or not ref.startswith("cs:"):
        raise CharmError(f"malformed charm reference {ref!r} (want cs:[~owner/]name)")
    rest = ref[len("cs:"):]
    owner: str | None = None
    if rest.startswith("~"):
        owner, sep, rest = rest[1:].partition("/")
        if not sep or not owner:
            raise CharmError(f"malformed charm reference {ref!r} (want cs:[~owner/]name)")
    if not rest or "/" in rest:
        raise CharmError(f"malformed charm reference {ref!r} (want cs:[~owner/]name)")
    return owner, rest


# ---------------------------------------------------------------------------
# Charm definition files


def load_charm(text: str | bytes) -> tuple[CharmSpec, str | None]:
    """Parse a charm definition document, bytes read as UTF-8; returns
    (spec, owner)."""
    doc = statefile.load_mapping(text, "charm", CharmError, yaml_only=True, allow_empty=False)
    known = {"name", "owner", "series", "provides", "requires", "options", "handlers", "storage"}
    unknown = set(doc) - known
    if unknown:
        raise CharmError(f"unknown charm key {sorted(unknown)[0]!r}")
    name = doc.get("name")
    if not isinstance(name, str):
        raise CharmError("charm document must declare a name")
    series_raw = doc.get("series") or []
    if isinstance(series_raw, str):
        series_raw = [series_raw]
    if not isinstance(series_raw, list):
        raise CharmError(f"charm {name!r}: series must be a list")
    options: dict[str, OptionSchema] = {}
    for opt_name, body in (doc.get("options") or {}).items():
        if not isinstance(body, dict):
            raise CharmError(f"charm {name!r}: option {opt_name!r} body must be a mapping")
        options[str(opt_name)] = OptionSchema(
            type=body.get("type", "string"),
            default=body.get("default"),
            description=str(body.get("description", "")),
        )
    handlers = tuple(
        _parse_handler(name, entry) for entry in (doc.get("handlers") or [])
    )
    spec = CharmSpec(
        name=name,
        series=frozenset(sorted(str(s) for s in series_raw)),
        provides={str(k): str(v) for k, v in (doc.get("provides") or {}).items()},
        requires={str(k): str(v) for k, v in (doc.get("requires") or {}).items()},
        config=options,
        handlers=handlers,
        storage_pools=tuple(str(p) for p in (doc.get("storage") or [])),
    )
    owner = doc.get("owner")
    if owner is not None and not isinstance(owner, str):
        raise CharmError(f"charm {name!r}: owner must be a string")
    return spec, owner


def _parse_handler(charm_name: str, entry) -> HookHandler:
    if isinstance(entry, dict):
        # YAML 1.1 resolves a bare `on` key to boolean true; map it back.
        entry = {("on" if key is True else key): value for key, value in entry.items()}
    if not isinstance(entry, dict) or "on" not in entry:
        raise CharmError(f"charm {charm_name!r}: each handler needs an 'on' event")
    unknown = set(entry) - {"on", "when", "do"}
    if unknown:
        raise CharmError(f"charm {charm_name!r}: unknown handler key {sorted(unknown)[0]!r}")
    on = parse_event_kind(entry["on"])
    when = entry.get("when") or []
    if isinstance(when, str):
        when = [when]
    if not isinstance(when, list):
        raise CharmError(f"charm {charm_name!r}: handler 'when' must be a list of flags")
    actions = tuple(_parse_action(charm_name, raw) for raw in (entry.get("do") or []))
    if not actions:
        raise CharmError(f"charm {charm_name!r}: handler on {on.render()!r} has no actions")
    return HookHandler(on=on, actions=actions, when_states=frozenset(sorted(str(f) for f in when)))


def _parse_action(charm_name: str, raw) -> HookAction:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise CharmError(f"charm {charm_name!r}: each action must be a single-key mapping")
    verb, body = next(iter(raw.items()))
    if verb == "set-status":
        return SetUnitStatus(str(body))
    if verb == "set-state":
        return SetState(str(body))
    if verb == "clear-state":
        return ClearState(str(body))
    if verb == "open-port":
        if not isinstance(body, int) or isinstance(body, bool):
            raise CharmError(f"charm {charm_name!r}: open-port takes an integer")
        return OpenPort(body)
    if verb == "fail":
        return Fail(str(body))
    if verb == "set-relation-data":
        if not isinstance(body, dict) or not {"endpoint", "key", "value"} <= set(body):
            raise CharmError(
                f"charm {charm_name!r}: set-relation-data needs endpoint, key and value"
            )
        return SetRelationData(
            endpoint=str(body["endpoint"]),
            key=str(body["key"]),
            value=_option_str(body["value"]),
        )
    raise CharmError(f"charm {charm_name!r}: unknown action {verb!r}")


# ---------------------------------------------------------------------------
# The compiled form


#: The hook action classes by name, as ``compile_charm`` writes them.
_ACTIONS = {cls.__name__: cls for cls in (SetUnitStatus, SetState, ClearState, SetRelationData,
                                          OpenPort, Fail)}


def _json_exact(value) -> bool:
    """Whether JSON gives ``value`` back with the same type and value."""
    return (value is None or type(value) in (bool, int, str)
            or (type(value) is float and math.isfinite(value)))


def compile_charm(spec: CharmSpec, owner: str | None) -> dict | None:
    """``(spec, owner)`` as plain JSON data, from which ``uncompile_charm``
    builds an equal spec and owner; None when an option default is not
    None, a bool, an int, a finite float or a str (a date, a list,
    ``.nan``), which JSON would not give back as it was."""
    if not all(_json_exact(schema.default) for schema in spec.config.values()):
        return None
    return {
        "owner": owner,
        "name": spec.name,
        "series": sorted(spec.series),
        "provides": spec.provides,
        "requires": spec.requires,
        "options": [[name, schema.type, schema.default, schema.description]
                    for name, schema in spec.config.items()],
        "handlers": [[handler.on.kind, handler.on.name, sorted(handler.when_states),
                      [[type(action).__name__, *vars(action).values()]
                       for action in handler.actions]]
                     for handler in spec.handlers],
        "storage": list(spec.storage_pools),
    }


def uncompile_charm(form: dict) -> tuple[CharmSpec, str | None]:
    """The ``(spec, owner)`` that ``compile_charm`` made ``form`` from."""
    handlers = tuple(
        HookHandler(on=EventKind(kind, name),
                    actions=tuple(_ACTIONS[verb](*fields) for verb, *fields in actions),
                    when_states=frozenset(when))
        for kind, name, when, actions in form["handlers"]
    )
    spec = CharmSpec(
        name=form["name"],
        series=frozenset(form["series"]),
        provides=form["provides"],
        requires=form["requires"],
        config={name: OptionSchema(option_type, default, description)
                for name, option_type, default, description in form["options"]},
        handlers=handlers,
        storage_pools=tuple(form["storage"]),
    )
    return spec, form["owner"]

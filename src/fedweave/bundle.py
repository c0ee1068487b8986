"""The declarative bundle language.

A bundle is a YAML document describing applications, the machines they run
on, and the relations between them::

    applications:
      moodle:
        charm: "cs:~csd-garr/moodle"
        num_units: 1
        to:
          - 0
      postgresql:
        charm: "cs:postgresql"
        num_units: 1
        to:
          - lxd:0
        options:
          extra_pg_auth: host moodle juju_moodle 10.0.0.1/24 md5
    relations:
      - ["postgresql:db", "moodle:database"]
    machines:
      "0":
        series: xenial
        constraints: "arch=amd64 cpu-cores=1 mem=2048 root-disk=20480"

Recognised top-level keys are ``applications``, ``machines``, ``relations``
and ``series`` (a default series for machines that do not declare one).

Constraint strings use the grammar::

    constraints ::= pair (" " pair)*
    pair        ::= "arch=" TOKEN
                  | "cpu-cores=" COUNT
                  | "mem=" COUNT          ; MiB, no suffixes
                  | "root-disk=" COUNT    ; MiB, no suffixes
                  | "tags=" TOKEN ("," TOKEN)*

Numeric values are plain non-negative integers; canonical rendering emits
pairs in the order above with tags sorted.  Placement directives are either
a bundle-local machine id (``"0"``), a container directive (``"lxd:0"``),
or absent, which means a fresh machine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import yaml

from .errors import FedweaveError

#: Container kinds understood by placement directives.
CONTAINER_KINDS = frozenset({"lxd"})

#: Canonical ordering of constraint keys for rendering.
_CONSTRAINT_KEYS = ("arch", "cpu-cores", "mem", "root-disk", "tags")

_TOKEN_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

_TOP_LEVEL_KEYS = frozenset({"applications", "machines", "relations", "series"})
_APP_KEYS = frozenset({"charm", "num_units", "to", "options", "expose"})
_MACHINE_KEYS = frozenset({"series", "constraints"})


class BundleError(FedweaveError):
    """Semantic problem in a bundle definition."""

    module = "bundle"


class BundleParseError(BundleError):
    """Syntactic problem in a bundle document; carries the source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ConstraintError(BundleError):
    """Malformed or invalid machine constraint string."""


class PlacementError(BundleError):
    """Malformed or invalid placement directive."""


# ---------------------------------------------------------------------------
# Core value types


@dataclass(frozen=True)
class Constraints:
    """Minimum machine requirements.  ``None`` means unconstrained.

    ``mem`` and ``root_disk`` are in MiB; suffixed values ("2G") are
    deliberately not accepted.
    """

    arch: str | None = None
    cpu_cores: int | None = None
    mem: int | None = None
    root_disk: int | None = None
    tags: frozenset[str] = frozenset()

    def is_unconstrained(self) -> bool:
        return (
            self.arch is None
            and self.cpu_cores is None
            and self.mem is None
            and self.root_disk is None
            and not self.tags
        )


@dataclass(frozen=True)
class Placement:
    """Where a unit goes: an existing machine, a container, or a fresh one."""

    kind: str  # "machine" | "container" | "fresh"
    container_kind: str | None = None
    machine: str | None = None

    @classmethod
    def on_machine(cls, machine: str) -> "Placement":
        return cls(kind="machine", machine=machine)

    @classmethod
    def in_container(cls, container_kind: str, machine: str) -> "Placement":
        return cls(kind="container", container_kind=container_kind, machine=machine)

    @classmethod
    def fresh(cls) -> "Placement":
        return cls(kind="fresh")

    def render(self) -> str:
        if self.kind == "machine":
            return str(self.machine)
        if self.kind == "container":
            return f"{self.container_kind}:{self.machine}"
        return ""


@dataclass(frozen=True)
class EndpointRef:
    """One side of a relation, ``application:endpoint``."""

    application: str
    endpoint: str

    def render(self) -> str:
        return f"{self.application}:{self.endpoint}"


@dataclass(frozen=True)
class MachineSpec:
    series: str
    constraints: Constraints = Constraints()


@dataclass(frozen=True)
class ApplicationSpec:
    charm: str
    num_units: int = 1
    placements: tuple[Placement, ...] = ()
    options: dict = field(default_factory=dict)
    expose: bool = False


@dataclass(frozen=True)
class Bundle:
    applications: dict[str, ApplicationSpec] = field(default_factory=dict)
    machines: dict[str, MachineSpec] = field(default_factory=dict)
    relations: tuple[tuple[EndpointRef, EndpointRef], ...] = ()
    default_series: str | None = None


@dataclass(frozen=True)
class Diagnostic:
    """A validation finding.  ``severity`` is ``error`` or ``warning``."""

    severity: str
    path: str
    message: str

    def render(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


# ---------------------------------------------------------------------------
# Constraint parsing


def parse_constraints(text: str) -> Constraints:
    """Parse a constraint string such as ``"arch=amd64 cpu-cores=1 mem=2048"``.

    Raises ConstraintError on unknown keys, duplicate keys, malformed
    pairs, non-numeric counts and negative values.
    """
    if not isinstance(text, str):
        raise ConstraintError(f"constraint string expected, got {type(text).__name__}")
    arch: str | None = None
    cpu_cores: int | None = None
    mem: int | None = None
    root_disk: int | None = None
    tags: frozenset[str] = frozenset()
    seen: set[str] = set()
    for token in text.split():
        if "=" not in token:
            raise ConstraintError(f"malformed constraint pair {token!r}")
        key, _, value = token.partition("=")
        if key not in _CONSTRAINT_KEYS:
            raise ConstraintError(f"unknown constraint key {key!r}")
        if key in seen:
            raise ConstraintError(f"duplicate constraint key {key!r}")
        seen.add(key)
        if value == "":
            raise ConstraintError(f"empty value for constraint key {key!r}")
        if key == "arch":
            if not _TOKEN_RE.match(value):
                raise ConstraintError(f"malformed arch value {value!r}")
            arch = value
        elif key == "tags":
            labels = value.split(",")
            for label in labels:
                if not _TOKEN_RE.match(label):
                    raise ConstraintError(f"malformed tag {label!r}")
            tags = frozenset(labels)
        else:
            count = _parse_count(key, value)
            if key == "cpu-cores":
                cpu_cores = count
            elif key == "mem":
                mem = count
            else:
                root_disk = count
    return Constraints(arch=arch, cpu_cores=cpu_cores, mem=mem, root_disk=root_disk, tags=tags)


def _parse_count(key: str, value: str) -> int:
    try:
        count = int(value, 10)
    except ValueError:
        raise ConstraintError(f"non-numeric value {value!r} for constraint key {key!r}") from None
    if count < 0:
        raise ConstraintError(f"negative value {count} for constraint key {key!r}")
    return count


def render_constraints(constraints: Constraints) -> str:
    """Render constraints canonically: fixed key order, tags sorted."""
    parts: list[str] = []
    if constraints.arch is not None:
        parts.append(f"arch={constraints.arch}")
    if constraints.cpu_cores is not None:
        parts.append(f"cpu-cores={constraints.cpu_cores}")
    if constraints.mem is not None:
        parts.append(f"mem={constraints.mem}")
    if constraints.root_disk is not None:
        parts.append(f"root-disk={constraints.root_disk}")
    if constraints.tags:
        parts.append("tags=" + ",".join(sorted(constraints.tags)))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Placement parsing


def parse_placement(token) -> Placement:
    """Parse one ``to:`` entry.  ``None`` or ``""`` means a fresh machine.

    Bundle-local machine ids are numeric strings; YAML integers are
    accepted and normalised.  ``kind:id`` targets a container of the given
    kind on the machine; only kinds in CONTAINER_KINDS are understood.
    """
    if token is None:
        return Placement.fresh()
    if isinstance(token, int):
        token = str(token)
    if not isinstance(token, str):
        raise PlacementError(f"placement directive must be a string, got {type(token).__name__}")
    token = token.strip()
    if token == "":
        return Placement.fresh()
    if ":" in token:
        kind, _, machine = token.partition(":")
        if kind not in CONTAINER_KINDS:
            raise PlacementError(f"unknown container kind {kind!r}")
        if not machine.isdigit():
            raise PlacementError(f"non-numeric machine id {machine!r} in placement {token!r}")
        return Placement.in_container(kind, machine)
    if not token.isdigit():
        raise PlacementError(f"non-numeric machine id {token!r}")
    return Placement.on_machine(token)


def parse_endpoint(text: str) -> EndpointRef:
    if not isinstance(text, str) or text.count(":") != 1:
        raise BundleError(f"malformed relation endpoint {text!r} (want application:endpoint)")
    application, _, endpoint = text.partition(":")
    if not application or not endpoint:
        raise BundleError(f"malformed relation endpoint {text!r} (want application:endpoint)")
    return EndpointRef(application, endpoint)


# ---------------------------------------------------------------------------
# YAML loading with duplicate-key detection


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate mapping keys instead of silently
    keeping the last one.

    This pure-Python loader is the reference: what it accepts, the value it
    builds and the error it raises define how a bundle reads.  ``_load_yaml``
    parses with libyaml when PyYAML was built with it, and falls back to this
    loader wherever the two could differ."""


def _construct_mapping(loader: _StrictLoader, node, deep: bool = False):
    mapping = {}
    for key_node, value_node in node.value:
        mark = key_node.start_mark
        if not isinstance(key_node, yaml.ScalarNode):
            raise BundleParseError(
                "mapping key must be a scalar", line=mark.line + 1, column=mark.column + 1
            )
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise BundleParseError(
                f"duplicate key {key!r}", line=mark.line + 1, column=mark.column + 1
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)

if yaml.__with_libyaml__:

    class _CStrictLoader(yaml.CSafeLoader):
        """``_StrictLoader`` with libyaml's scanner and parser."""

    _CStrictLoader.add_constructor(
        yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
    )
else:
    _CStrictLoader = None

#: Text outside the subset where libyaml and the pure-Python parser were seen
#: to agree: anything but printable ASCII and newline (tabs, CR, BOM,
#: non-ASCII line breaks), and the indicators of tags, anchors, aliases,
#: complex keys, block scalars, directives and reserved characters.
_LIBYAML_UNSAFE = re.compile(r"[^\n -~]|[!&*?|>%@`]")


def _load_yaml(text: str):
    """Parse one YAML document, rejecting duplicate keys.

    libyaml parses text inside the safe subset.  Anything outside it, and
    anything libyaml rejects, is parsed again by ``_load_reference``, so
    every result and every error message is the reference loader's."""
    if _CStrictLoader is not None and not _LIBYAML_UNSAFE.search(text):
        try:
            return yaml.load(text, Loader=_CStrictLoader)
        except (yaml.YAMLError, BundleParseError):
            pass  # the reference loader words the rejection
    return _load_reference(text)


def _load_reference(text: str):
    """Parse one YAML document with the pure-Python ``_StrictLoader``."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except BundleParseError:
        raise
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise BundleParseError(
                getattr(exc, "problem", None) or str(exc),
                line=mark.line + 1,
                column=mark.column + 1,
            ) from exc
        raise BundleParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Bundle parsing


def parse_bundle(text: str) -> Bundle:
    """Parse and structurally check a bundle document.

    Structural invariants enforced here: placements reference declared
    machines, relation endpoints reference declared applications, every
    machine ends up with a series, placement lists are no longer than
    num_units, and names are unique.
    """
    doc = _load_yaml(text)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise BundleParseError("bundle document must be a mapping")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise BundleError(f"unknown top-level key {sorted(unknown)[0]!r}")

    default_series = doc.get("series")
    if default_series is not None and not isinstance(default_series, str):
        raise BundleError("bundle series must be a string")

    machines = _parse_machines(doc.get("machines") or {}, default_series)
    applications = _parse_applications(doc.get("applications") or {}, machines)
    relations = _parse_relations(doc.get("relations") or [], applications)
    return Bundle(
        applications=applications,
        machines=machines,
        relations=relations,
        default_series=default_series,
    )


def _parse_machines(raw, default_series: str | None) -> dict[str, MachineSpec]:
    if not isinstance(raw, dict):
        raise BundleError("machines must be a mapping of machine ids")
    machines: dict[str, MachineSpec] = {}
    for raw_id, body in raw.items():
        machine_id = str(raw_id)
        if not machine_id.isdigit():
            raise BundleError(f"machine id {machine_id!r} is not numeric")
        body = body or {}
        if not isinstance(body, dict):
            raise BundleError(f"machine {machine_id!r} body must be a mapping")
        unknown = set(body) - _MACHINE_KEYS
        if unknown:
            raise BundleError(f"unknown machine key {sorted(unknown)[0]!r} on machine {machine_id!r}")
        series = body.get("series", default_series)
        if not series:
            raise BundleError(f"machine {machine_id!r} has no series and the bundle declares no default")
        if not isinstance(series, str):
            raise BundleError(f"machine {machine_id!r} series must be a string")
        constraints = Constraints()
        if "constraints" in body:
            constraints = parse_constraints(body["constraints"])
        machines[machine_id] = MachineSpec(series=series, constraints=constraints)
    return machines


def _parse_applications(raw, machines: dict[str, MachineSpec]) -> dict[str, ApplicationSpec]:
    if not isinstance(raw, dict):
        raise BundleError("applications must be a mapping of application names")
    applications: dict[str, ApplicationSpec] = {}
    for name, body in raw.items():
        if not isinstance(name, str) or not _TOKEN_RE.match(name):
            raise BundleError(f"invalid application name {name!r}")
        body = body or {}
        if not isinstance(body, dict):
            raise BundleError(f"application {name!r} body must be a mapping")
        unknown = set(body) - _APP_KEYS
        if unknown:
            raise BundleError(f"unknown application key {sorted(unknown)[0]!r} on {name!r}")
        if "charm" not in body or not isinstance(body["charm"], str):
            raise BundleError(f"application {name!r} must declare a charm reference")
        num_units = body.get("num_units", 1)
        if not isinstance(num_units, int) or isinstance(num_units, bool) or num_units < 0:
            raise BundleError(f"application {name!r} num_units must be a non-negative integer")
        raw_to = body.get("to", [])
        if raw_to is None:
            raw_to = []
        if not isinstance(raw_to, list):
            raw_to = [raw_to]
        placements = tuple(parse_placement(token) for token in raw_to)
        if len(placements) > num_units:
            raise BundleError(
                f"application {name!r} places {len(placements)} units but num_units is {num_units}"
            )
        for placement in placements:
            if placement.machine is not None and placement.machine not in machines:
                raise BundleError(
                    f"application {name!r} placed on undeclared machine {placement.machine!r}"
                )
        options = body.get("options") or {}
        if not isinstance(options, dict):
            raise BundleError(f"application {name!r} options must be a mapping")
        for opt_name, opt_value in options.items():
            if isinstance(opt_value, (dict, list)):
                raise BundleError(
                    f"application {name!r} option {opt_name!r} must be a scalar"
                )
        expose = body.get("expose", False)
        if not isinstance(expose, bool):
            raise BundleError(f"application {name!r} expose must be a boolean")
        applications[name] = ApplicationSpec(
            charm=body["charm"],
            num_units=num_units,
            placements=placements,
            options=dict(options),
            expose=expose,
        )
    return applications


def _parse_relations(raw, applications: dict[str, ApplicationSpec]):
    if not isinstance(raw, list):
        raise BundleError("relations must be a list of endpoint pairs")
    relations: list[tuple[EndpointRef, EndpointRef]] = []
    seen_pairs: set[frozenset] = set()
    for index, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise BundleError(f"relations[{index}] must be a two-element list")
        left = parse_endpoint(pair[0])
        right = parse_endpoint(pair[1])
        for ref in (left, right):
            if ref.application not in applications:
                raise BundleError(
                    f"relations[{index}] references unknown application {ref.application!r}"
                )
        key = frozenset({left.render(), right.render()})
        if key in seen_pairs:
            raise BundleError(f"relations[{index}] duplicates an earlier relation")
        seen_pairs.add(key)
        relations.append((left, right))
    return tuple(relations)


# ---------------------------------------------------------------------------
# Rendering


def render_bundle(bundle: Bundle) -> str:
    """Render a bundle back to YAML.  The output parses to a structurally
    equal Bundle (canonical ordering, not byte-identical to the input)."""
    return yaml.safe_dump(_canonical_document(bundle), sort_keys=False, default_flow_style=False)


def _canonical_document(bundle: Bundle) -> dict:
    """The bundle as plain data in canonical order: applications by name,
    machines by numeric id, options by name, constraints rendered."""
    doc: dict = {}
    if bundle.default_series is not None:
        doc["series"] = bundle.default_series
    if bundle.applications:
        apps: dict = {}
        for name in sorted(bundle.applications):
            spec = bundle.applications[name]
            body: dict = {"charm": spec.charm, "num_units": spec.num_units}
            if spec.placements:
                body["to"] = [p.render() for p in spec.placements]
            if spec.options:
                body["options"] = {k: spec.options[k] for k in sorted(spec.options, key=str)}
            if spec.expose:
                body["expose"] = True
            apps[name] = body
        doc["applications"] = apps
    if bundle.machines:
        machines: dict = {}
        for machine_id in sorted(bundle.machines, key=int):
            spec = bundle.machines[machine_id]
            body = {"series": spec.series}
            if not spec.constraints.is_unconstrained():
                body["constraints"] = render_constraints(spec.constraints)
            machines[machine_id] = body
        doc["machines"] = machines
    if bundle.relations:
        doc["relations"] = [[a.render(), b.render()] for a, b in bundle.relations]
    return doc


# ---------------------------------------------------------------------------
# Validation against a charm store


def validate_bundle(bundle: Bundle, store) -> list[Diagnostic]:
    """Semantic validation against a charm store.

    Error diagnostics cover unresolvable charms, incompatible or unknown
    relation endpoints, unknown option names, uncoercible option values,
    and placements on a machine (or in a container on a host) whose series
    the charm does not support.
    A warning is flagged when an application declares fewer placements than
    num_units while placing some units explicitly; the extras fall back to
    fresh machines.
    """
    diagnostics: list[Diagnostic] = []
    specs = {}
    for name in sorted(bundle.applications):
        app = bundle.applications[name]
        try:
            spec = store.resolve_charm(app.charm)
        except FedweaveError as exc:
            diagnostics.append(Diagnostic("error", f"applications.{name}.charm", str(exc)))
            continue
        specs[name] = spec
        for opt_name in sorted(app.options, key=str):
            path = f"applications.{name}.options.{opt_name}"
            schema = spec.config.get(opt_name)
            if schema is None:
                diagnostics.append(Diagnostic("error", path, f"charm {spec.name!r} has no option {opt_name!r}"))
                continue
            try:
                schema.coerce(app.options[opt_name])
            except FedweaveError as exc:
                diagnostics.append(Diagnostic("error", path, str(exc)))
        for index, placement in enumerate(app.placements):
            machine = bundle.machines.get(placement.machine)
            if machine is not None and machine.series not in spec.series:
                diagnostics.append(Diagnostic(
                    "error",
                    f"applications.{name}.to[{index}]",
                    f"charm {spec.name!r} does not support series {machine.series!r} "
                    f"of machine {placement.machine!r}",
                ))
        if app.placements and len(app.placements) < app.num_units:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    f"applications.{name}.to",
                    f"{app.num_units - len(app.placements)} of {app.num_units} units "
                    "have no placement directive; they will get fresh machines",
                )
            )
    for index, (left, right) in enumerate(bundle.relations):
        path = f"relations[{index}]"
        left_spec = specs.get(left.application)
        right_spec = specs.get(right.application)
        if left_spec is None or right_spec is None:
            continue  # the charm diagnostic already covers it
        problem = _relation_problem(left, left_spec, right, right_spec)
        if problem:
            diagnostics.append(Diagnostic("error", path, problem))
    return diagnostics


def _relation_problem(left, left_spec, right, right_spec) -> str | None:
    """Return a description of why the endpoint pair cannot relate, else None."""
    for ref, spec in ((left, left_spec), (right, right_spec)):
        if ref.endpoint not in spec.provides and ref.endpoint not in spec.requires:
            return f"charm {spec.name!r} has no endpoint {ref.endpoint!r}"
    if left.endpoint in left_spec.provides and right.endpoint in right_spec.requires:
        provider_iface = left_spec.provides[left.endpoint]
        requirer_iface = right_spec.requires[right.endpoint]
    elif right.endpoint in right_spec.provides and left.endpoint in left_spec.requires:
        provider_iface = right_spec.provides[right.endpoint]
        requirer_iface = left_spec.requires[left.endpoint]
    else:
        return (
            f"{left.render()} and {right.render()} do not form a provider/requirer pair"
        )
    if provider_iface != requirer_iface:
        return (
            f"interface mismatch: {left.render()} and {right.render()} "
            f"speak {provider_iface!r} vs {requirer_iface!r}"
        )
    return None

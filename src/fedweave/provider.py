"""Simulated bare-metal substrate.

Machines are enlisted into (region, availability zone) pools with fixed
capacities and free-form property labels (e.g. ``ssd``).  Acquisition is
deterministic best-fit: among ready machines that satisfy the constraints
(arch equality, enough free cores/memory/disk, required tags present), the
winner minimises ``(memory slack, disk slack, machine id)``.

Acquired machines can host containers one level deep.  Container ids embed
the host (``0/lxd/1``); constrained containers reserve capacity on the
host, unconstrained ones reserve nothing.  Top-level machines cycle
``new -> ready -> acquired -> released -> ready`` (commissioning and the
released hop are instantaneous here); containers are destroyed on release.

An inventory is loaded in one pass, one positional call per record, and
its state-file text is one f-string template per record, the compact JSON
that ``statefile.dump`` writes for ``dump()``.  The ready index that
best-fit placement walks is built by the first ``select_machine``, so a
command that places nothing never sorts the pool.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _str

from . import statefile
from .bundle import CONTAINER_KINDS, Constraints, parse_constraints, render_constraints
from .errors import FedweaveError
from .statefile import block, strings_text

MACHINE_STATES = ("new", "ready", "acquired", "released")


class ProviderError(FedweaveError):
    module = "provider"


class UnsatisfiableError(ProviderError):
    """No ready machine can satisfy the requested constraints."""


class UnknownZoneError(ProviderError):
    """The (region, az) pool has not been registered."""


@dataclass
class MachineRecord:
    id: str
    region: str
    az: str
    arch: str
    cores: int
    mem: int  # MiB
    disk: int  # MiB
    series: str
    properties: set[str] = field(default_factory=set)
    state: str = "ready"
    parent: str | None = None  # host machine id for containers
    kind: str | None = None  # container kind for containers
    reserved_cores: int = 0
    reserved_mem: int = 0
    reserved_disk: int = 0
    containers: list[str] = field(default_factory=list)
    container_counters: dict[str, int] = field(default_factory=dict)

    def is_container(self) -> bool:
        return self.parent is not None

    def free_cores(self) -> int:
        return self.cores - self.reserved_cores

    def free_mem(self) -> int:
        return self.mem - self.reserved_mem

    def free_disk(self) -> int:
        return self.disk - self.reserved_disk

    def satisfies(self, constraints: Constraints) -> bool:
        if constraints.arch is not None and self.arch != constraints.arch:
            return False
        if constraints.cpu_cores is not None and self.free_cores() < constraints.cpu_cores:
            return False
        if constraints.mem is not None and self.free_mem() < constraints.mem:
            return False
        if constraints.root_disk is not None and self.free_disk() < constraints.root_disk:
            return False
        if not constraints.tags <= self.properties:
            return False
        return True


def machine_sort_key(machine_id: str):
    """Natural ordering: numeric ids numerically, container ids nested."""
    return tuple(int(part) if part.isdigit() else part for part in machine_id.split("/"))


def _ready_entry(record: MachineRecord) -> tuple:
    """A ready machine's entry in the ready index, in best-fit order."""
    return (record.free_mem(), record.free_disk(), machine_sort_key(record.id), record.id)


class Inventory(statefile.Document):
    """A pool of machines spanning one or more regions."""

    what = "inventory"
    error = ProviderError

    def __init__(self) -> None:
        self.machines: dict[str, MachineRecord] = {}
        self.zones: set[tuple[str, str]] = set()
        self._next_id = 0
        # Ready top-level machines in best-fit order: sorted entries
        # (free mem, free disk, natural id key, id), and each id's entry.
        # None until the first placement builds them.
        self._ready: list[tuple] | None = None
        self._ready_entries: dict[str, tuple] = {}

    def _build_ready(self) -> list[tuple]:
        self._ready = sorted(_ready_entry(record) for record in self.machines.values()
                             if record.parent is None and record.state == "ready")
        self._ready_entries = {entry[3]: entry for entry in self._ready}
        return self._ready

    def _index_ready(self, record: MachineRecord) -> None:
        if self._ready is None:
            return
        self._unindex(record.id)
        entry = _ready_entry(record)
        self._ready_entries[record.id] = entry
        bisect.insort(self._ready, entry)

    def _unindex(self, machine_id: str) -> None:
        if self._ready is None:
            return
        entry = self._ready_entries.pop(machine_id, None)
        if entry is not None:
            del self._ready[bisect.bisect_left(self._ready, entry)]

    # -- zones ---------------------------------------------------------

    def add_zone(self, region: str, az: str) -> None:
        self.zones.add((region, az))

    # -- enlistment ----------------------------------------------------

    def enlist(
        self,
        region: str,
        az: str,
        arch: str,
        cores: int,
        mem: int,
        disk: int,
        series: str,
        properties: set[str] | None = None,
    ) -> MachineRecord:
        """Enlist a machine into a registered zone.  Commissioning is
        modelled as instantaneous, so the record lands in ``ready``."""
        if (region, az) not in self.zones:
            raise UnknownZoneError(f"unknown zone {region!r}/{az!r}")
        for label, value in (("cores", cores), ("mem", mem), ("disk", disk)):
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ProviderError(f"machine {label} must be a positive integer, got {value!r}")
        record = MachineRecord(
            id=str(self._next_id),
            region=region,
            az=az,
            arch=arch,
            cores=cores,
            mem=mem,
            disk=disk,
            series=series,
            properties=set(properties or ()),
            state="ready",
        )
        self._next_id += 1
        self.machines[record.id] = record
        self._index_ready(record)
        return record

    # -- acquisition ---------------------------------------------------

    def select_machine(
        self,
        constraints: Constraints,
        region: str | None = None,
        az: str | None = None,
        machine: str | None = None,
    ) -> MachineRecord | None:
        """Pure best-fit choice; returns None when nothing satisfies.

        Candidates are ready top-level machines within the scope.  The
        winner minimises (mem slack, disk slack, id) lexicographically,
        where slack is free capacity minus the requested amount.

        Slack subtracts the same two constants from every candidate, so
        ordering candidates by slack is ordering them by (free mem, free
        disk, id), whatever the request.  Free capacity changes only when
        a container is created, which needs an acquired host, or released,
        which re-sorts a ready host; so that order is kept once, in the
        ready index, and the winner is its first entry that passes the
        filters.  The first call builds the index from the records.
        ``state`` is re-checked because callers may set it on a record
        directly.
        """
        if machine is not None:
            record = self.machines.get(machine)
            candidates = [record] if record is not None else []
        else:
            ready = self._ready if self._ready is not None else self._build_ready()
            candidates = (self.machines[entry[3]] for entry in ready)
        for record in candidates:
            if record.is_container() or record.state != "ready":
                continue
            if region is not None and record.region != region:
                continue
            if az is not None and record.az != az:
                continue
            if record.satisfies(constraints):
                return record
        return None

    def acquire(
        self,
        constraints: Constraints,
        region: str | None = None,
        az: str | None = None,
        machine: str | None = None,
    ) -> MachineRecord:
        record = self.select_machine(constraints, region=region, az=az, machine=machine)
        if record is None:
            raise UnsatisfiableError(
                "no ready machine satisfies "
                f"{render_constraints(constraints) or 'unconstrained request'}"
                + (f" in region {region!r}" if region else "")
                + (f" az {az!r}" if az else "")
                + (f" machine {machine!r}" if machine else "")
            )
        record.state = "acquired"
        self._unindex(record.id)
        return record

    # -- containers ----------------------------------------------------

    def create_container(
        self, host_id: str, kind: str, constraints: Constraints | None = None
    ) -> MachineRecord:
        """Create a container on an acquired host.

        A constrained container reserves its cores/mem/disk on the host
        and fails when free capacity is insufficient; an unconstrained one
        reserves nothing and shares the host.  Containers inherit the
        host's arch and series and nest exactly one level.
        """
        host = self.machines.get(host_id)
        if host is None:
            raise ProviderError(f"unknown machine {host_id!r}")
        if host.is_container():
            raise ProviderError(f"cannot nest a container inside container {host_id!r}")
        if host.state != "acquired":
            raise ProviderError(f"machine {host_id!r} is {host.state}, not acquired")
        if kind not in CONTAINER_KINDS:
            raise ProviderError(f"unknown container kind {kind!r}")
        constraints = constraints or Constraints()
        want = (constraints.cpu_cores or 0, constraints.mem or 0, constraints.root_disk or 0)
        if constraints.arch is not None and constraints.arch != host.arch:
            raise ProviderError(
                f"container arch {constraints.arch!r} does not match host arch {host.arch!r}"
            )
        free = (host.free_cores(), host.free_mem(), host.free_disk())
        for label, wanted, have in zip(("cores", "mem", "disk"), want, free):
            if wanted > have:
                raise UnsatisfiableError(
                    f"host {host_id!r} has {have} free {label}, container wants {wanted}"
                )
        index = host.container_counters.get(kind, 0)
        host.container_counters[kind] = index + 1
        container = MachineRecord(
            id=f"{host.id}/{kind}/{index}",
            region=host.region,
            az=host.az,
            arch=host.arch,
            cores=constraints.cpu_cores or host.cores,
            mem=constraints.mem or host.mem,
            disk=constraints.root_disk or host.disk,
            series=host.series,
            state="acquired",
            parent=host.id,
            kind=kind,
            reserved_cores=0,
        )
        host.reserved_cores += want[0]
        host.reserved_mem += want[1]
        host.reserved_disk += want[2]
        host.containers.append(container.id)
        self.machines[container.id] = container
        # Remember the reservation so release can undo it.
        container.reserved_cores, container.reserved_mem, container.reserved_disk = want
        return container

    # -- release -------------------------------------------------------

    def release(self, machine_id: str) -> None:
        """Release an acquired machine.

        Hosts must shed their containers first and cycle back to ready;
        containers give back their reservation and are destroyed.
        """
        record = self.machines.get(machine_id)
        if record is None:
            raise ProviderError(f"unknown machine {machine_id!r}")
        if record.state != "acquired":
            raise ProviderError(f"machine {machine_id!r} is {record.state}, not acquired")
        if record.is_container():
            host = self.machines[record.parent]
            host.reserved_cores -= record.reserved_cores
            host.reserved_mem -= record.reserved_mem
            host.reserved_disk -= record.reserved_disk
            host.containers.remove(record.id)
            if host.state == "ready":  # only a hand-written inventory gets here
                self._index_ready(host)
            record.state = "released"
            del self.machines[record.id]
            return
        if record.containers:
            raise ProviderError(
                f"machine {machine_id!r} still hosts containers: {sorted(record.containers)}"
            )
        record.state = "ready"  # the released hop is instantaneous
        self._index_ready(record)

    # -- serialization -------------------------------------------------

    def dump(self) -> dict:
        """Dump to a document that ``load`` restores exactly."""
        machines = []
        for machine_id in sorted(self.machines, key=machine_sort_key):
            record = self.machines[machine_id]
            body: dict = {
                "id": record.id,
                "region": record.region,
                "az": record.az,
                "arch": record.arch,
                "cores": record.cores,
                "mem": record.mem,
                "disk": record.disk,
                "series": record.series,
                "properties": sorted(record.properties),
                "state": record.state,
            }
            if record.is_container():
                body["parent"] = record.parent
                body["kind"] = record.kind
                body["reserved"] = {
                    "cores": record.reserved_cores,
                    "mem": record.reserved_mem,
                    "disk": record.reserved_disk,
                }
            else:
                if record.containers:
                    body["containers"] = sorted(record.containers, key=machine_sort_key)
                if record.container_counters:
                    body["container_counters"] = dict(sorted(record.container_counters.items()))
            machines.append(body)
        return {
            "zones": [
                {"region": region, "az": az} for region, az in sorted(self.zones)
            ],
            "next_id": self._next_id,
            "machines": machines,
        }

    def dump_yaml(self) -> str:
        """``statefile.dump(self.dump())``, byte for byte, written by
        ``_text``: the text of ``inventory.yaml``."""
        return self._text()

    def _text(self) -> str:
        """The compact text of ``dump()``, with no document built: one
        f-string template per record, as ``engine.checkpoint_text`` writes
        ``model.yaml``.  Strings are written by ``encode_basestring_ascii``
        and ints by their repr (``load`` and the methods that change a
        record admit no other type), and a list of properties that many
        records share is written once.  ``Federation`` writes each
        region's inventory by it."""
        texts: dict = {}
        machines = []
        for machine_id in sorted(self.machines, key=machine_sort_key):
            record = self.machines[machine_id]
            text = (f'{{"id":{_str(record.id)},"region":{_str(record.region)},'
                    f'"az":{_str(record.az)},"arch":{_str(record.arch)},"cores":{record.cores},'
                    f'"mem":{record.mem},"disk":{record.disk},"series":{_str(record.series)},'
                    f'"properties":{strings_text(record.properties, texts)},'
                    f'"state":{_str(record.state)}')
            if record.parent is not None:
                kind = "null" if record.kind is None else _str(record.kind)
                text += (f',"parent":{_str(record.parent)},"kind":{kind},"reserved":{{'
                         f'"cores":{record.reserved_cores},"mem":{record.reserved_mem},'
                         f'"disk":{record.reserved_disk}}}')
            else:
                if record.containers:
                    text += (',"containers":'
                             + strings_text(record.containers, texts, key=machine_sort_key))
                if record.container_counters:
                    text += ',"container_counters":' + block(
                        [f"{_str(kind)}:{count}"
                         for kind, count in sorted(record.container_counters.items())])
            machines.append(text + "}")
        zones = [f'{{"region":{_str(region)},"az":{_str(az)}}}'
                 for region, az in sorted(self.zones)]
        return (f'{{"zones":{block(zones, brackets="[]")},"next_id":{self._next_id},'
                f'"machines":{block(machines, brackets="[]")}}}')

    @classmethod
    def load(cls, doc: dict) -> "Inventory":
        """Restore an inventory from a dump, or seed one from a hand-written
        document (state defaults to ready, zones are inferred, and a machine
        with no id takes its position in the list).  A machine id given
        twice or neither a string nor an integer, cores, mem or disk that
        is not a positive integer, properties or containers that are not a
        list, a region, az, arch, series, property, parent or container
        kind that is not a string, a reservation, container counter or
        ``next_id`` that is not an integer, and a ``next_id`` not above
        every numeric machine id, are errors.
        Each record is built in one positional call; then containers join
        their hosts, and hosts reserve what their containers reserve.  The
        ready index is left for the first placement to build."""
        inv = cls()
        if not isinstance(doc, dict):
            raise ProviderError("inventory document must be a mapping")
        zones = inv.zones
        for zone in doc.get("zones") or []:
            region, az = zone["region"], zone["az"]
            if type(region) is not str or type(az) is not str:
                raise ProviderError(f"malformed inventory document: a zone has region {region!r} "
                                    f"and az {az!r}; each must be a string")
            zones.add((region, az))
        machines = inv.machines
        max_seen = -1
        for body in doc.get("machines") or []:
            get = body.get
            region, az = body["region"], body["az"]
            constraints_text = get("constraints")
            if constraints_text is not None:
                parsed = parse_constraints(constraints_text)
                cores = parsed.cpu_cores or 1
                mem = parsed.mem or 1024
                disk = parsed.root_disk or 10240
            else:
                cores, mem, disk = body["cores"], body["mem"], body["disk"]
            machine_id = get("id")
            named = machine_id is not None or "id" in body
            if type(machine_id) is not str:
                if not named:
                    machine_id = str(len(machines))
                elif type(machine_id) is int:
                    machine_id = str(machine_id)
                else:
                    raise ProviderError("malformed inventory document: machine id "
                                        f"{machine_id!r} is neither a string nor an integer")
            if not (type(cores) is int and type(mem) is int and type(disk) is int
                    and cores > 0 and mem > 0 and disk > 0):
                raise ProviderError(
                    f"malformed inventory document: machine {machine_id!r} has cores {cores!r}, "
                    f"mem {mem!r} and disk {disk!r}; each must be a positive integer")
            arch, series = get("arch", "amd64"), get("series", "xenial")
            if type(arch) is not str or type(series) is not str:
                raise ProviderError(f"malformed inventory document: machine {machine_id!r} has "
                                    f"arch {arch!r} and series {series!r}; each must be a string")
            if type(region) is not str or type(az) is not str:
                raise ProviderError(f"malformed inventory document: machine {machine_id!r} has "
                                    f"region {region!r} and az {az!r}; each must be a string")
            parent, kind = get("parent"), get("kind")
            if not ((parent is None or type(parent) is str)
                    and (kind is None or type(kind) is str)):
                raise ProviderError(f"malformed inventory document: machine {machine_id!r} has "
                                    f"parent {parent!r} and kind {kind!r}; each must be a string")
            if machine_id in machines:
                raise ProviderError(
                    f"machine id {machine_id!r} is listed twice" if named else
                    f"a machine with no id would take its position {machine_id!r} as its id, "
                    "which an earlier machine has")
            properties = get("properties") or []
            containers = get("containers") or []
            if type(properties) is not list or type(containers) is not list:
                raise ProviderError(f"malformed inventory document: machine {machine_id!r} has "
                                    f"properties {properties!r} and containers {containers!r}; "
                                    "each must be a list")
            for tag in properties:
                if type(tag) is not str:
                    raise ProviderError(f"malformed inventory document: machine {machine_id!r} "
                                        f"has property {tag!r}, which is not a string")
            reserved = get("reserved")
            if reserved:
                reservation = (reserved.get("cores", 0), reserved.get("mem", 0),
                               reserved.get("disk", 0))
                if not all(type(amount) is int for amount in reservation):
                    raise ProviderError(
                        f"malformed inventory document: machine {machine_id!r} has reserved "
                        f"{reserved!r}; its cores, mem and disk must each be an integer")
            else:
                reservation = (0, 0, 0)
            counters = get("container_counters")
            if counters:
                counters = {str(k): v for k, v in counters.items()}
                if not all(type(count) is int for count in counters.values()):
                    raise ProviderError(
                        f"malformed inventory document: machine {machine_id!r} has "
                        f"container_counters {counters!r}; each must be an integer")
            else:
                counters = {}
            state = str(get("state", "ready"))
            if state not in MACHINE_STATES:
                raise ProviderError(f"machine {machine_id!r} has unknown state {state!r}")
            machines[machine_id] = MachineRecord(
                machine_id, region, az, arch, cores, mem, disk, series, set(properties), state,
                parent, kind, *reservation, list(containers), counters)
            zones.add((region, az))
            if machine_id.isdigit() and int(machine_id) > max_seen:
                max_seen, max_id = int(machine_id), machine_id
        next_id = doc.get("next_id", max_seen + 1)
        if type(next_id) is not int:
            raise ProviderError(
                f"malformed inventory document: next_id {next_id!r} is not an integer")
        if max_seen >= 0 and next_id <= max_seen:  # an enlist would take a listed id
            raise ProviderError(f"malformed inventory document: next_id {next_id} is not "
                                f"above machine id {max_id!r}")
        inv._next_id = next_id
        for record in machines.values():
            if record.parent is not None:
                host = machines.get(record.parent)
                if host is None:
                    raise ProviderError(
                        f"container {record.id!r} references unknown host {record.parent!r}"
                    )
                if record.id not in host.containers:
                    host.containers.append(record.id)
        for record in machines.values():
            if record.parent is None and record.containers:
                for container_id in record.containers:
                    if container_id not in machines:
                        raise ProviderError(
                            f"machine {record.id!r} lists unknown container {container_id!r}")
                hosted = [machines[c] for c in record.containers]
                record.reserved_cores = sum(c.reserved_cores for c in hosted)
                record.reserved_mem = sum(c.reserved_mem for c in hosted)
                record.reserved_disk = sum(c.reserved_disk for c in hosted)
        return inv

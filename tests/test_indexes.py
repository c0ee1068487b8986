"""The engine's unit index, the inventory's ready index and the quota
accounting, checked against brute force over generated command sequences.

``Model.unit_ids_of`` reads a per-application index and
``Inventory.select_machine`` walks a sorted index of ready machines; both
are derived state.  After every command the first must equal a sorted
scan of ``model.units``, the second must agree with the brute-force
``best_fit_oracle``, and one step must leave every application that has
units with exactly one leader.

The model charges a project, so after every command the project's usage
must equal the constraints declared for the machines the model holds,
plus one instance per unit, and every machine the model holds must be
acquired.  Commands fail on purpose (a full pool, a spent quota, an
unknown machine, a plan larger than the pool); a failed command must
leave the state hash, the inventory and the quota tree exactly as they
were.  After every command, ``Inventory.load`` of the inventory's dump
must give the same dump.  The ready index is built by the first
placement; once built, it must equal a rebuild from scratch.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from oracles import best_fit_oracle, machines_doc

from fedweave.builtin import SCALED_BUNDLE, builtin_store
from fedweave.bundle import Bundle, Constraints, Placement, parse_bundle
from fedweave.cli import run_command
from fedweave.engine import (
    Model,
    add_unit,
    checkpoint,
    deploy_bundle,
    load_checkpoint,
    remove_unit,
    run_to_convergence,
    set_config,
    state_hash,
    step,
)
from fedweave.errors import FedweaveError
from fedweave.plan import compile_plan, execute_plan
from fedweave.provider import Inventory, ProviderError, machine_sort_key
from fedweave.quota import ProjectTree, QuotaSet

APPS = ("haproxy", "moodle", "postgresql")

# (mem MiB, disk MiB) of the pool's machines, in enlistment order: shapes
# repeat so that best-fit ties fall back to the natural id order.
POOL = ((4096, 40960), (2048, 20480), (8192, 102400), (2048, 20480),
        (4096, 20480), (8192, 40960), (2048, 40960), (4096, 40960))

REQUESTS = (
    {},
    {"mem": 2048},
    {"mem": 4096, "root-disk": 40960},
    {"root-disk": 102400},
    {"cpu-cores": 4, "mem": 8192},
    {"mem": 16384},
)


# Both bundles fit, with vcpus to spare for neither: once both are
# deployed, a plan's constrained machine fails on quota as it is acquired.
# Generated scale-outs and plans run out of instances now and then.
QUOTA = QuotaSet(vcpus=3, ram=20480, disk=120, instances=16)

# A second bundle: a constrained host whose disk is a partial GiB (30000
# MiB charges 30 GiB), a container on it, a host only a few pool machines
# satisfy, and a fresh machine.
SECOND_BUNDLE = """\
series: xenial
applications:
  campus:
    charm: "cs:~csd-garr/moodle"
    num_units: 3
    to: ["0", "lxd:1"]
  campusdb:
    charm: "cs:postgresql"
    num_units: 1
    to: ["lxd:0"]
relations:
  - ["campusdb:db", "campus:database"]
machines:
  "0":
    constraints: "cpu-cores=2 mem=4096 root-disk=30000"
  "1":
    constraints: "mem=8192"
"""


def _plan_bundle(fresh: int) -> str:
    """A bundle needing a constrained machine and ``fresh`` more: with
    ``fresh`` at least the pool size it can never be placed."""
    return (
        "series: xenial\n"
        "applications:\n"
        "  mirror:\n"
        '    charm: "cs:haproxy"\n'
        f"    num_units: {fresh + 1}\n"
        '    to: ["0"]\n'
        "machines:\n"
        '  "0":\n'
        '    constraints: "cpu-cores=1 mem=2048 root-disk=20480"\n'
    )


def _declared(constraints: Constraints) -> QuotaSet:
    """What holding a machine acquired with ``constraints`` costs: MiB of
    disk become GiB, a partial GiB rounding up."""
    disk_mib = constraints.root_disk or 0
    return QuotaSet(
        vcpus=constraints.cpu_cores or 0,
        ram=constraints.mem or 0,
        disk=(disk_mib + 1023) // 1024,
    )


def _unit_key(unit_id: str):
    app, _, index = unit_id.partition("/")
    return (app, int(index))


class UnitAndReadyIndexes(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = builtin_store()
        inventory = Inventory()
        inventory.add_zone("garr-01", "az1")
        for mem, disk in POOL:
            inventory.enlist(region="garr-01", az="az1", arch="amd64", cores=4,
                             mem=mem, disk=disk, series="xenial")
        self.tree = ProjectTree()
        self.tree.add_domain("garr")
        self.project = self.tree.create_project("cloud", "garr")
        for node in ("garr", self.project):
            self.tree.set_quota(node, QUOTA)
        self.model = Model(self.store, inventory, project=self.project, quota_tree=self.tree)
        # provider machine id -> the charge its bundle declared
        self.declared: dict[str, QuotaSet] = {}
        self._deploy(parse_bundle(SCALED_BUNDLE))

    def _snapshot(self) -> tuple:
        return (state_hash(self.model), self.model.inventory.dump(), self.tree.dump())

    def _deploy(self, bundle: Bundle) -> None:
        before = self._snapshot()
        try:
            result = deploy_bundle(self.model, bundle)
        except FedweaveError:
            assert self._snapshot() == before
            return
        for bundle_id, machine_id in result.machine_map.items():
            self.declared[machine_id] = _declared(bundle.machines[bundle_id].constraints)

    def _add(self, app: str, count: int, placement: Placement | None) -> None:
        counter = self.model.applications[app].unit_counter
        before = self._snapshot()
        try:
            add_unit(self.model, app, count=count, placement=placement)
        except FedweaveError:
            assert self._snapshot() == before
            assert self.model.applications[app].unit_counter == counter

    @rule(app=st.sampled_from(APPS), count=st.integers(1, 4))
    def add_fresh(self, app, count):
        self._add(app, count, None)

    @rule(app=st.sampled_from(APPS), count=st.integers(1, 2), data=st.data())
    def add_placed(self, app, count, data):
        machine = data.draw(st.sampled_from([str(i) for i in range(len(POOL) + 1)]))
        kind = data.draw(st.sampled_from(["machine", "lxd"]))
        placement = (
            Placement.on_machine(machine)
            if kind == "machine"
            else Placement.in_container("lxd", machine)
        )
        self._add(app, count, placement)

    @rule()
    def deploy_second_bundle(self):
        # Fails up front once deployed, and on a full pool or spent quota.
        self._deploy(parse_bundle(SECOND_BUNDLE))

    @rule(fresh=st.integers(len(POOL), len(POOL) + 4))
    def execute_oversized_plan(self, fresh):
        plan = compile_plan(parse_bundle(_plan_bundle(fresh)), self.store)
        before = self._snapshot()
        try:
            execute_plan(plan, self.model.inventory, self.store,
                         project=self.project, quota_tree=self.tree)
        except FedweaveError:
            assert self._snapshot() == before
        else:
            raise AssertionError("a plan larger than the pool was placed")

    def _round_trip(self) -> None:
        doc = json.loads(json.dumps(checkpoint(self.model, include_inventory=True)))
        restored = load_checkpoint(doc, self.store, quota_tree=self.tree)
        assert state_hash(restored) == state_hash(self.model)
        self.model = restored

    @precondition(lambda self: self.model.units)
    @rule(data=st.data(), reload=st.booleans())
    def remove(self, data, reload):
        unit_id = data.draw(st.sampled_from(sorted(self.model.units, key=_unit_key)))
        remove_unit(self.model, unit_id)
        if reload:  # before any step: the restored model must re-elect
            self._round_trip()

    @rule(port=st.integers(5432, 5434), name=st.sampled_from(["Moodle", "Campus"]))
    def configure(self, port, name):
        set_config(self.model, "postgresql", {"listen_port": port})
        set_config(self.model, "moodle", {"site_name": name})

    @rule()
    def converge(self):
        run_to_convergence(self.model)

    @rule()
    def checkpoint_round_trip(self):
        self._round_trip()

    @invariant()
    def unit_index_matches_scan(self):
        for app in APPS:
            scanned = sorted(
                (u.id for u in self.model.units.values() if u.app == app), key=_unit_key
            )
            assert self.model.unit_ids_of(app) == scanned

    @invariant()
    def occupancy_index_matches_scan(self):
        scanned: dict[str, set[str]] = {}
        for unit in self.model.units.values():
            scanned.setdefault(unit.machine, set()).add(unit.id)
        assert self.model._machine_units == scanned

    @invariant()
    def ready_index_matches_oracle(self):
        inventory = self.model.inventory
        for want in REQUESTS:
            chosen = inventory.select_machine(
                Constraints(cpu_cores=want.get("cpu-cores"), mem=want.get("mem"),
                            root_disk=want.get("root-disk"))
            )
            expected = best_fit_oracle(machines_doc(inventory), want)
            assert (chosen.id if chosen else None) == expected

    @invariant()
    def usage_is_what_the_model_holds(self):
        held = self.model.machines
        assert all(self.model.inventory.machines[m].state == "acquired" for m in held)
        # A released machine's declared charge goes with it.
        self.declared = {m: c for m, c in self.declared.items() if m in held}
        expected = QuotaSet(instances=len(self.model.units))
        for charge in self.declared.values():
            expected = expected.add(charge)
        assert self.tree.nodes[self.project].usage == expected

    @invariant()
    def inventory_reloads_the_same(self):
        inventory = self.model.inventory
        restored = Inventory.load(inventory.dump())
        assert restored.dump() == inventory.dump()
        assert restored._ready is None
        restored.select_machine(Constraints())
        assert (restored._ready, restored._ready_entries) == rebuilt_ready(inventory)
        if inventory._ready is not None:
            assert (inventory._ready, inventory._ready_entries) == rebuilt_ready(inventory)

    @invariant()
    def one_step_leaves_one_leader(self):
        # Processes one event: leader upkeep runs at the start of a step.
        step(self.model)
        for app in APPS:
            unit_ids = self.model.unit_ids_of(app)
            if unit_ids:
                assert sum(self.model.units[u].leader for u in unit_ids) == 1


def rebuilt_ready(inventory: Inventory) -> tuple[list, dict]:
    """The ready index and each id's entry, rebuilt from scratch: every
    ready top-level machine in (free mem, free disk, natural id) order."""
    ready = sorted((record.free_mem(), record.free_disk(), machine_sort_key(record.id), record.id)
                   for record in inventory.machines.values()
                   if not record.is_container() and record.state == "ready")
    return ready, {entry[3]: entry for entry in ready}


UnitAndReadyIndexes.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None
)
TestUnitAndReadyIndexes = UnitAndReadyIndexes.TestCase


# A hand-written inventory: no next_id, no zones and an id on the container
# only; a machine given by constraints text, machines without a state, and
# a container that its host does not list.
HAND_WRITTEN = """\
machines:
  - {region: garr-01, az: az1, constraints: 'cpu-cores=8 mem=16384'}
  - {region: garr-01, az: az2, cores: 2, mem: 4096, disk: 20480, state: acquired}
  - {id: 1/lxd/0, region: garr-01, az: az2, cores: 1, mem: 1024, disk: 10240,
     parent: '1', kind: lxd, state: acquired, reserved: {cores: 1, mem: 1024}}
  - {region: garr-02, az: az1, cores: 4, mem: 8192, disk: 40960, series: bionic,
     properties: [ssd]}
"""


def _machine(machine_id: str, az: str, cores: int, mem: int, disk: int, state: str,
             **extra) -> dict:
    return {"id": machine_id, "region": extra.pop("region", "garr-01"), "az": az,
            "arch": "amd64", "cores": cores, "mem": mem, "disk": disk,
            "series": extra.pop("series", "xenial"), "properties": extra.pop("properties", []),
            "state": state, **extra}


def test_hand_written_inventory_loads_with_defaults():
    inventory = Inventory.load_yaml(HAND_WRITTEN)
    assert inventory.dump() == {
        "zones": [{"region": "garr-01", "az": "az1"}, {"region": "garr-01", "az": "az2"},
                  {"region": "garr-02", "az": "az1"}],
        "next_id": 4,
        "machines": [
            _machine("0", "az1", 8, 16384, 10240, "ready"),
            _machine("1", "az2", 2, 4096, 20480, "acquired", containers=["1/lxd/0"]),
            _machine("1/lxd/0", "az2", 1, 1024, 10240, "acquired", parent="1", kind="lxd",
                     reserved={"cores": 1, "mem": 1024, "disk": 0}),
            _machine("3", "az1", 4, 8192, 40960, "ready", region="garr-02", series="bionic",
                     properties=["ssd"]),
        ],
    }
    host = inventory.machines["1"]
    assert (host.free_cores(), host.free_mem(), host.free_disk()) == (1, 3072, 20480)
    assert inventory._ready is None  # until the first placement
    assert inventory.select_machine(Constraints()).id == "3"
    assert inventory._ready == [(8192, 40960, (3,), "3"), (16384, 10240, (0,), "0")]
    assert (inventory._ready, inventory._ready_entries) == rebuilt_ready(inventory)
    reloaded = Inventory.load(inventory.dump())
    assert reloaded.dump() == inventory.dump()
    reloaded.select_machine(Constraints())
    assert (reloaded._ready, reloaded._ready_entries) == rebuilt_ready(inventory)


@pytest.mark.parametrize(
    ("body", "message"),
    [("{id: '0', region: r, az: a, cores: 1, mem: 1, disk: 1, state: limbo}",
      "machine '0' has unknown state 'limbo'"),
     ("{id: 9/lxd/0, region: r, az: a, cores: 1, mem: 1, disk: 1, state: acquired, "
      "parent: '9', kind: lxd}",
      "container '9/lxd/0' references unknown host '9'"),
     ("{id: '1', region: r, az: a, cores: 1, mem: 1, disk: 1, state: acquired, "
      "containers: [1/lxd/0]}",
      "machine '1' lists unknown container '1/lxd/0'"),
     # Two machines given one id: the second no longer replaces the first.
     ("{id: '1', region: r, az: a, cores: 2, mem: 1, disk: 1}\n"
      "  - {id: 1, region: r, az: a, cores: 1, mem: 1, disk: 1}",
      "machine id '1' is listed twice"),
     ("{id: '1', region: r, az: a, cores: 2, mem: 1, disk: 1}\n"
      "  - {region: r, az: a, cores: 1, mem: 1, disk: 1}",
      "a machine with no id would take its position '1' as its id, "
      "which an earlier machine has"),
     ("{id: '0', region: r, az: a, cores: 1, mem: 1, disk: 1, properties: [1, a]}",
      "malformed inventory document: machine '0' has property 1, which is not a string"),
     # Once coerced: cores 2.5 loaded as 2, mem true as 1 and series 5 as '5'.
     ("{id: '0', region: r, az: a, cores: 2.5, mem: 1, disk: 1}",
      "malformed inventory document: machine '0' has cores 2.5, mem 1 and disk 1; "
      "each must be a positive integer"),
     ("{id: '0', region: r, az: a, cores: 1, mem: true, disk: 1}",
      "malformed inventory document: machine '0' has cores 1, mem True and disk 1; "
      "each must be a positive integer"),
     ("{id: '0', region: r, az: a, cores: 1, mem: 1, disk: '4'}",
      "malformed inventory document: machine '0' has cores 1, mem 1 and disk '4'; "
      "each must be a positive integer"),
     ("{id: '0', region: r, az: a, cores: 1, mem: 1, disk: 1, arch: [amd64]}",
      "malformed inventory document: machine '0' has arch ['amd64'] and series 'xenial'; "
      "each must be a string"),
     ("{id: '0', region: r, az: a, cores: 1, mem: 1, disk: 1, series: 5}",
      "malformed inventory document: machine '0' has arch 'amd64' and series 5; "
      "each must be a string")],
    ids=["unknown-state", "unknown-host", "unknown-container", "duplicate-id", "position-id",
         "property-not-a-string", "cores-a-float", "mem-a-boolean", "disk-a-string",
         "arch-a-list", "series-an-int"],
)
def test_hand_written_inventory_errors_are_one_line(tmp_path, capsys, body, message):
    with pytest.raises(ProviderError) as raised:
        Inventory.load_yaml(f"machines:\n  - {body}\n")
    assert str(raised.value) == message
    assert run_command(["-w", str(tmp_path), "init"]) == 0
    capsys.readouterr()
    (tmp_path / "inventory.yaml").write_text(f"machines:\n  - {body}\n")
    assert run_command(["-w", str(tmp_path), "machine", "list"]) == 1
    assert capsys.readouterr() == ("", f"provider: {message}\n")

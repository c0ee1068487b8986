"""The engine's unit index and the inventory's ready index, checked against
brute force over generated command sequences.

``Model.unit_ids_of`` reads a per-application index and
``Inventory.select_machine`` walks a sorted index of ready machines; both
are derived state.  After every command the first must equal a sorted
scan of ``model.units``, the second must agree with the brute-force
``best_fit_oracle``, and one step must leave every application that has
units with exactly one leader.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from oracles import best_fit_oracle, machines_doc

from fedweave.builtin import SCALED_BUNDLE, builtin_store
from fedweave.bundle import Constraints, Placement, parse_bundle
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
from fedweave.provider import Inventory

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
        self.model = Model(self.store, inventory)
        deploy_bundle(self.model, parse_bundle(SCALED_BUNDLE))

    def _add(self, app: str, count: int, placement: Placement | None) -> None:
        counter = self.model.applications[app].unit_counter
        before = (state_hash(self.model), self.model.inventory.dump())
        try:
            add_unit(self.model, app, count=count, placement=placement)
        except FedweaveError:
            assert (state_hash(self.model), self.model.inventory.dump()) == before
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

    def _round_trip(self) -> None:
        doc = json.loads(json.dumps(checkpoint(self.model, include_inventory=True)))
        restored = load_checkpoint(doc, self.store)
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
    def one_step_leaves_one_leader(self):
        # Processes one event: leader upkeep runs at the start of a step.
        step(self.model)
        for app in APPS:
            unit_ids = self.model.unit_ids_of(app)
            if unit_ids:
                assert sum(self.model.units[u].leader for u in unit_ids) == 1


UnitAndReadyIndexes.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None
)
TestUnitAndReadyIndexes = UnitAndReadyIndexes.TestCase

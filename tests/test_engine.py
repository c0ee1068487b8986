"""Reactive engine: convergence, redelivery, scaling, checkpoints, hashing."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (endpoint_of_oracle, flatten_seen, seen_groups_oracle,
                     status_snapshot_oracle)

from fedweave import engine, seen, statefile
from fedweave import plan as plan_module
from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE, builtin_store
from fedweave.bundle import Constraints, Placement, parse_bundle
from fedweave.charms import CharmNotFoundError, CharmStore, EventKind, load_charm
from fedweave.engine import (
    CharmConflictError,
    DeploymentError,
    EngineError,
    Event,
    Model,
    UnknownEntityError,
    Unit,
    add_relation,
    add_unit,
    checkpoint,
    deploy_bundle,
    elect_leader,
    load_checkpoint,
    remove_unit,
    run_to_convergence,
    set_config,
    state_hash,
    status_snapshot,
    step,
    update_status,
)
from fedweave.plan import compile_plan, execute_plan
from fedweave.provider import Inventory, UnsatisfiableError
from fedweave.quota import ProjectTree, QuotaExceededError, QuotaSet, ReleaseExceedsUsageError
from fedweave.seen import MalformedSeenError

REL_ID = "postgresql:db moodle:database"


def _store_with(*charm_texts):
    store = builtin_store()
    for text in charm_texts:
        spec, owner = load_charm(text)
        store.register_charm(spec, owner)
    return store


class TestMoodleConvergence:
    def test_placement_fidelity(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        record = model.inventory.machines[host]
        assert record.arch == "amd64"
        assert record.cores >= 1 and record.mem >= 2048 and record.disk >= 20480
        assert model.units["moodle/0"].machine == host
        assert model.units["postgresql/0"].machine == f"{host}/lxd/0"

    def test_both_units_active(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        assert model.units["moodle/0"].status == "active"
        assert model.units["postgresql/0"].status == "active"
        assert model.converged

    def test_single_relation_with_published_data(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        assert list(model.relations) == [REL_ID]
        relation = model.relations[REL_ID]
        assert relation.interface == "pgsql"
        assert relation.data["postgresql/0"] == {
            "host": "10.0.0.1",
            "port": "5432",
            "user": "juju_moodle",
        }
        # moodle answered with the templated remote host.
        assert relation.data["moodle/0"] == {"connected": "10.0.0.1"}

    def test_flags_after_convergence(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        assert model.units["moodle/0"].states == {
            "installed", "database.connected", "started",
        }
        assert model.units["postgresql/0"].states == {"installed", "started"}

    def test_golden_event_trace(self, store, make_inventory):
        model = Model(store, make_inventory())
        model.trace = []
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        result = run_to_convergence(model)
        assert result.converged
        assert result.events_processed == 11
        observed = [(t["event"][0], t["event"][1], t["target"]) for t in model.trace]
        assert observed == [
            ("install", "", "moodle/0"),
            ("leader-elected", "", "moodle/0"),
            ("install", "", "postgresql/0"),
            ("leader-elected", "", "postgresql/0"),
            ("relation-joined", "db", "postgresql/0"),
            ("relation-joined", "database", "moodle/0"),
            # start arrives before the relation data: recorded, not run...
            ("start", "", "moodle/0"),
            ("start", "", "postgresql/0"),
            ("relation-changed", "database", "moodle/0"),
            ("relation-changed", "db", "postgresql/0"),
            # ...then redelivered once the database flag appears.
            ("start", "", "moodle/0"),
        ]

    def test_redelivery_is_what_unblocks_start(self, store, make_inventory):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        redelivered = 0
        while True:
            report = step(model)
            if report.event is None:
                break
            redelivered += report.redelivered
        assert redelivered == 1
        assert model.units["moodle/0"].status == "active"

    def test_leader_flags(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        assert model.units["moodle/0"].leader
        assert model.units["postgresql/0"].leader


class TestOrderInvariance:
    def test_handler_shuffle_seeds_agree(self, store, make_inventory):
        hashes = set()
        for seed in range(25):
            model = Model(store, make_inventory())
            deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
            assert run_to_convergence(model, rng_seed=seed).converged
            hashes.add(state_hash(model))
        assert len(hashes) == 1

    def test_scaled_bundle_seeds_agree(self, store, make_inventory):
        hashes = set()
        for seed in range(10):
            model = Model(store, make_inventory())
            deploy_bundle(model, parse_bundle(SCALED_BUNDLE))
            assert run_to_convergence(model, rng_seed=seed).converged
            hashes.add(state_hash(model))
        assert len(hashes) == 1


class TestIdempotence:
    def test_shadow_reapplication_produces_no_deltas(self, store, make_inventory):
        for bundle_text in (MOODLE_BUNDLE, SCALED_BUNDLE):
            model = Model(store, make_inventory())
            model.shadow_check = True
            deploy_bundle(model, parse_bundle(bundle_text))
            assert run_to_convergence(model).converged
            assert model.shadow_deltas == 0

    @pytest.mark.parametrize(
        "bundle_text", [MOODLE_BUNDLE, SCALED_BUNDLE], ids=["moodle", "scaled"]
    )
    def test_shadow_check_does_not_perturb_the_run(self, store, make_inventory, bundle_text):
        runs = []
        for shadow in (False, True):
            model = Model(store, make_inventory())
            model.shadow_check = shadow
            model.trace = []
            deploy_bundle(model, parse_bundle(bundle_text))
            assert run_to_convergence(model).converged
            runs.append((model.trace, state_hash(model)))
        assert runs[0] == runs[1]

    def test_converging_a_converged_model_is_free(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        result = run_to_convergence(model)
        assert result.converged and result.events_processed == 0

    @given(port=st.integers(min_value=1024, max_value=65535))
    @settings(deadline=None, max_examples=25)
    def test_repeated_config_write_is_absolute(self, port):
        store = builtin_store()
        inventory = Inventory()
        inventory.add_zone("garr-01", "az1")
        for _ in range(4):
            inventory.enlist(
                region="garr-01", az="az1", arch="amd64",
                cores=4, mem=8192, disk=102400, series="xenial",
            )
        model = Model(store, inventory)
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(model)
        set_config(model, "postgresql", {"listen_port": port})
        run_to_convergence(model)
        once = state_hash(model)
        assert set_config(model, "postgresql", {"listen_port": port}) == []
        assert model.converged
        assert state_hash(model) == once


class TestRelationDataFlow:
    def test_config_change_republishes_and_notifies(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        changed = set_config(model, "postgresql", {"listen_port": 6432})
        assert changed == ["listen_port"]
        result = run_to_convergence(model)
        assert result.converged
        bag = model.relations[REL_ID].data["postgresql/0"]
        assert bag["port"] == "6432"

    def test_unchanged_value_emits_no_relation_changed(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        # extra_pg_auth is not templated into the bag: the config-changed
        # handler rewrites port with its current value, so nothing changes
        # and no relation-changed reaches moodle.
        set_config(model, "postgresql", {"extra_pg_auth": "local all postgres peer"})
        result = run_to_convergence(model)
        assert result.events_processed == 1

    def test_no_op_config_enqueues_nothing(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        assert set_config(model, "postgresql", {"listen_port": 5432}) == []
        assert model.converged

    def test_unknown_option(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="has no option"):
            set_config(model, "postgresql", {"max_connections": 10})

    def test_unknown_application(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(UnknownEntityError, match="unknown application"):
            set_config(model, "mysql", {"x": 1})


class TestAddRelation:
    def test_orientation_is_provider_first(self, deploy_fixture):
        model, _ = deploy_fixture(SCALED_BUNDLE)
        relation = model.relations["moodle:website haproxy:reverseproxy"]
        assert relation.provider == "moodle:website"
        assert relation.requirer == "haproxy:reverseproxy"
        assert relation.interface == "http"

    @given(provider=st.sampled_from(["a:x", "a:y", "b:x", "a", "b:", ":x", "a:b:c"]),
           requirer=st.sampled_from(["a:z", "b:y", "c:x", "a", "c", "a:b:c"]))
    @example(provider="a:x", requirer="a:y")
    def test_endpoints_match_the_partition_of_each_side(self, provider, requirer):
        relation = engine.Relation("r", provider, requirer, "http")
        # Asked twice: the second answer comes from the map the first built.
        for _ in range(2):
            for app in ("a", "b", "c", "", "x", "a:b"):
                assert relation.endpoint_of(app) == endpoint_of_oracle(relation, app), app
        if provider == "a:x" and requirer == "a:y":
            assert relation.endpoint_of("a") == "x"

    def test_endpoints_of_deployed_relations(self, deploy_fixture):
        model, _ = deploy_fixture(SCALED_BUNDLE)
        for relation in model.relations.values():
            (provider, _, provider_endpoint), (requirer, _, requirer_endpoint) = (
                relation.provider.partition(":"), relation.requirer.partition(":"))
            for app in (provider, requirer, "nosuch"):
                assert relation.endpoint_of(app) == endpoint_of_oracle(relation, app)
            # Each side's other side, and the kind its units get when this side writes.
            assert relation.sides == {
                provider: (provider_endpoint, requirer,
                           EventKind("relation-changed", requirer_endpoint)),
                requirer: (requirer_endpoint, provider,
                           EventKind("relation-changed", provider_endpoint)),
            }

    def test_duplicate_relation(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="already exists"):
            add_relation(model, "moodle:database", "postgresql:db")

    def test_self_relation(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="to itself"):
            add_relation(model, "moodle:website", "moodle:database")

    def test_malformed_endpoint(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="malformed endpoint"):
            add_relation(model, "moodle", "postgresql:db")

    def test_requirer_requirer_pair_rejected(self, store, make_inventory):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(
            "applications:\n"
            "  front:\n    charm: cs:haproxy\n    num_units: 1\n"
            "  back:\n    charm: cs:haproxy\n    num_units: 1\n"
        ))
        with pytest.raises(EngineError, match="provider/requirer pair"):
            add_relation(model, "front:reverseproxy", "back:reverseproxy")


class TestScaling:
    def test_add_units_join_existing_relations(self, deploy_fixture):
        model, _ = deploy_fixture(SCALED_BUNDLE)
        new_ids = add_unit(model, "moodle", count=2)
        assert new_ids == ["moodle/1", "moodle/2"]
        assert run_to_convergence(model).converged
        assert model.unit_ids_of("moodle") == ["moodle/0", "moodle/1", "moodle/2"]
        for unit_id in new_ids:
            unit = model.units[unit_id]
            assert unit.status == "active"
            # The published database data was re-delivered to the newcomers.
            assert "database.connected" in unit.states
        db_relation = model.relations[REL_ID]
        assert db_relation.data["moodle/2"] == {"connected": "10.0.0.1"}

    def test_add_unit_into_container(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        new_ids = add_unit(
            model, "postgresql", placement=Placement.in_container("lxd", host)
        )
        assert model.units[new_ids[0]].machine == f"{host}/lxd/1"

    def test_add_unit_onto_live_machine(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        new_ids = add_unit(model, "moodle", placement=Placement.on_machine(host))
        assert model.units[new_ids[0]].machine == host

    def test_add_unit_fresh_machine(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        owned_before = set(model.machines)
        new_ids = add_unit(model, "moodle")
        machine = model.units[new_ids[0]].machine
        assert machine not in owned_before
        assert model.inventory.machines[machine].state == "acquired"
        assert model.inventory.machines[machine].series == "xenial"

    def test_failed_add_unit_rolls_back(self, deploy_fixture):
        # Machine 0 hosts the bundle; 1 and 2 are acquired before the pool
        # runs dry on the third of five fresh machines.
        model, _ = deploy_fixture(MOODLE_BUNDLE, machines=3)
        hash_before = state_hash(model)
        inventory_before = model.inventory.dump()
        with pytest.raises(UnsatisfiableError):
            add_unit(model, "moodle", count=5)
        assert state_hash(model) == hash_before
        assert model.inventory.dump() == inventory_before
        assert model.applications["moodle"].unit_counter == 1
        assert model.unit_ids_of("moodle") == ["moodle/0"]
        assert add_unit(model, "moodle") == ["moodle/1"]

    def test_add_unit_unknown_app(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(UnknownEntityError):
            add_unit(model, "mysql")

    def test_add_unit_nonpositive_count(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="must be positive"):
            add_unit(model, "moodle", count=0)


class TestRemoveUnit:
    def test_remote_units_get_departed_events(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        remove_unit(model, "postgresql/0")
        kinds = [e.kind.render() for e in model.event_queue]
        assert kinds == ["database-relation-departed"]
        assert "postgresql/0" not in model.units
        assert run_to_convergence(model).converged

    def test_machine_released_when_emptied(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        container = model.units["postgresql/0"].machine
        remove_unit(model, "postgresql/0")
        assert container not in model.inventory.machines
        assert container not in model.machines

    def test_shared_machine_stays_acquired(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        add_unit(model, "moodle", placement=Placement.on_machine(host))
        run_to_convergence(model)
        remove_unit(model, "moodle/1")
        assert model.inventory.machines[host].state == "acquired"

    def test_host_with_containers_is_kept(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        remove_unit(model, "moodle/0")
        # postgresql's container still lives on the host.
        assert model.inventory.machines[host].state == "acquired"

    def test_leader_reelection_after_removal(self, deploy_fixture):
        model, _ = deploy_fixture(SCALED_BUNDLE)
        add_unit(model, "moodle", count=2)
        run_to_convergence(model)
        assert model.units["moodle/0"].leader
        remove_unit(model, "moodle/0")
        run_to_convergence(model)
        leaders = [u for u in model.unit_ids_of("moodle") if model.units[u].leader]
        assert leaders == ["moodle/1"]

    def test_unknown_unit(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(UnknownEntityError, match="unknown unit"):
            remove_unit(model, "moodle/9")

    def test_removal_reads_the_occupancy_index_not_every_unit(self, deploy_fixture, monkeypatch):
        """``remove_unit`` finds the machines it frees from the machine
        occupancy index, so it works without walking ``model.units``."""
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        add_unit(model, "moodle", placement=Placement.on_machine(host))
        add_unit(model, "moodle")
        run_to_convergence(model)
        lone = model.units["moodle/2"].machine

        class Unwalkable(dict):
            def values(self):
                raise AssertionError("remove_unit walked every unit")

        monkeypatch.setattr(model, "units", Unwalkable(model.units))
        remove_unit(model, "moodle/1")  # shares the host with moodle/0
        remove_unit(model, "moodle/2")  # alone on its machine
        assert model.inventory.machines[host].state == "acquired"
        assert lone not in model.machines
        assert model.inventory.machines[lone].state == "ready"


class TestRemovalOrder:
    """MOODLE puts moodle/0 on machine 0 and postgresql/0 in a container
    on it.  Removing both, in either order, must hand machine 0 back."""

    def _removed(self, store, make_inventory, order):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        assert run_to_convergence(model).converged
        for unit_id in order:
            remove_unit(model, unit_id)
        assert run_to_convergence(model).converged
        return model

    def test_both_orders_release_the_host(self, store, make_inventory):
        container_last = self._removed(store, make_inventory, ("moodle/0", "postgresql/0"))
        host_last = self._removed(store, make_inventory, ("postgresql/0", "moodle/0"))
        assert state_hash(container_last) == state_hash(host_last)
        assert container_last.inventory.dump() == host_last.inventory.dump()
        assert container_last.machines == host_last.machines == set()
        assert all(r.state == "ready" for r in container_last.inventory.machines.values())

    def test_host_with_a_unit_is_kept_when_its_container_goes(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        host = result.machine_map["0"]
        remove_unit(model, "postgresql/0")
        assert model.inventory.machines[host].state == "acquired"
        assert host in model.machines


def _fleet_bundle(moodle_units: int) -> str:
    return f"""\
series: xenial
applications:
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: {moodle_units}
  postgresql:
    charm: "cs:postgresql"
    num_units: 2
relations:
  - ["postgresql:db", "moodle:database"]
"""


def _leader_calls(monkeypatch) -> dict:
    """Count ``Model.unit_ids_of`` and ``elect_leader`` calls."""
    calls = {"unit_ids_of": 0, "elect_leader": 0}
    unit_ids_of = Model.unit_ids_of
    elect = engine.elect_leader

    def counted_unit_ids_of(model, app):
        calls["unit_ids_of"] += 1
        return unit_ids_of(model, app)

    def counted_elect(model, app):
        calls["elect_leader"] += 1
        return elect(model, app)

    monkeypatch.setattr(Model, "unit_ids_of", counted_unit_ids_of)
    monkeypatch.setattr(engine, "elect_leader", counted_elect)
    return calls


def _assert_leader_after_first_install(events) -> None:
    """Each application's leader-elected comes right after its first
    install event, once."""
    events = list(events)
    apps = {e.target.partition("/")[0] for e in events if e.kind == EventKind.install()}
    assert apps
    for app in apps:
        first = next(
            i for i, e in enumerate(events)
            if e.kind == EventKind.install() and e.target.startswith(app + "/")
        )
        assert events[first + 1] == Event(EventKind.leader_elected(), events[first].target)
        elected = [
            e for e in events
            if e.kind == EventKind.leader_elected() and e.target.startswith(app + "/")
        ]
        assert len(elected) == 1


class TestLeaderUpkeep:
    """Keeping a leader costs the same per command whatever the size of
    the application: the calls counted do not grow with the unit count."""

    def _deploy_calls(self, monkeypatch, store, make_inventory, moodle_units):
        model = Model(store, make_inventory(moodle_units + 2))
        bundle = parse_bundle(_fleet_bundle(moodle_units))
        with monkeypatch.context() as patch:
            calls = _leader_calls(patch)
            deploy_bundle(model, bundle)
        return calls

    def test_deploy_bundle(self, monkeypatch, store, make_inventory):
        small = self._deploy_calls(monkeypatch, store, make_inventory, 50)
        large = self._deploy_calls(monkeypatch, store, make_inventory, 800)
        assert small == large
        assert small["elect_leader"] == 2

    def _add_unit_calls(self, monkeypatch, store, make_inventory, count):
        model = Model(store, make_inventory(4 + count))
        deploy_bundle(model, parse_bundle(_fleet_bundle(2)))
        assert run_to_convergence(model).converged
        with monkeypatch.context() as patch:
            calls = _leader_calls(patch)
            add_unit(model, "moodle", count=count)
        return calls

    def test_add_unit(self, monkeypatch, store, make_inventory):
        one = self._add_unit_calls(monkeypatch, store, make_inventory, 1)
        twenty = self._add_unit_calls(monkeypatch, store, make_inventory, 20)
        assert one == twenty
        assert one["elect_leader"] == 0

    def _execute_plan(self, monkeypatch, store, bundle_text, inventory):
        """Execute a compiled plan without converging it; returns the
        calls its steps made and the queue they left."""
        plan = compile_plan(parse_bundle(bundle_text), store)
        queued: list = []
        with monkeypatch.context() as patch:
            patch.setattr(
                plan_module, "run_to_convergence",
                lambda model, **_: queued.extend(model.event_queue),
            )
            calls = _leader_calls(patch)
            execute_plan(plan, inventory, store)
        return calls, queued

    def test_execute_plan(self, monkeypatch, store, make_inventory):
        small, small_queue = self._execute_plan(
            monkeypatch, store, _fleet_bundle(50), make_inventory(52)
        )
        large, large_queue = self._execute_plan(
            monkeypatch, store, _fleet_bundle(800), make_inventory(802)
        )
        assert small == large
        assert small["elect_leader"] == 2
        _assert_leader_after_first_install(small_queue)
        _assert_leader_after_first_install(large_queue)

    @pytest.mark.parametrize("bundle_text", [MOODLE_BUNDLE, SCALED_BUNDLE])
    def test_leader_elected_follows_first_install(self, deploy_fixture, bundle_text):
        model, _ = deploy_fixture(bundle_text, converge=False)
        _assert_leader_after_first_install(model.event_queue)

    def test_scaled_plan_keeps_the_queue_order(self, monkeypatch, store, make_inventory):
        _, queued = self._execute_plan(monkeypatch, store, SCALED_BUNDLE, make_inventory(8))
        _assert_leader_after_first_install(queued)

    def test_add_unit_after_every_unit_was_removed(self, deploy_fixture):
        model, _ = deploy_fixture(SCALED_BUNDLE)
        for unit_id in model.unit_ids_of("moodle"):
            remove_unit(model, unit_id)
        assert run_to_convergence(model).converged
        (new_id,) = add_unit(model, "moodle")
        events = list(model.event_queue)
        start = events.index(Event(EventKind.install(), new_id))
        assert events[start + 1] == Event(EventKind.leader_elected(), new_id)
        assert run_to_convergence(model).converged
        assert model.units[new_id].leader


class TestLeaderElection:
    def test_elect_requires_units(self, store, make_inventory):
        model = Model(store, make_inventory())
        with pytest.raises(UnknownEntityError):
            elect_leader(model, "moodle")

    def test_elect_twice_rejected(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="already has a leader"):
            elect_leader(model, "moodle")


class TestConflicts:
    CONFUSED = (
        "name: confused\n"
        "series: [xenial]\n"
        "handlers:\n"
        "  - on: install\n"
        "    do:\n"
        "      - set-status: active\n"
        "  - on: install\n"
        "    do:\n"
        "      - set-status: blocked\n"
    )
    AGREEING = (
        "name: agreeing\n"
        "series: [xenial]\n"
        "handlers:\n"
        "  - on: install\n"
        "    do:\n"
        "      - set-status: active\n"
        "  - on: install\n"
        "    do:\n"
        "      - set-status: active\n"
    )
    RESTLESS = (
        "name: restless\n"
        "series: [xenial]\n"
        "handlers:\n"
        "  - on: install\n"
        "    do:\n"
        "      - set-status: blocked\n"
        "      - set-status: active\n"
    )
    BUNDLE = "applications:\n  app:\n    charm: cs:{name}\n    num_units: 1\n"

    def test_strict_mode_raises(self, make_inventory):
        store = _store_with(self.CONFUSED)
        model = Model(store, make_inventory(), strict_conflicts=True)
        deploy_bundle(model, parse_bundle(self.BUNDLE.format(name="confused")))
        with pytest.raises(CharmConflictError, match="conflicting values"):
            run_to_convergence(model)

    def test_lax_mode_is_last_writer_wins(self, make_inventory):
        store = _store_with(self.CONFUSED)
        model = Model(store, make_inventory(), strict_conflicts=False)
        deploy_bundle(model, parse_bundle(self.BUNDLE.format(name="confused")))
        assert run_to_convergence(model).converged
        assert model.units["app/0"].status in {"active", "blocked"}

    def test_agreement_is_not_a_conflict(self, make_inventory):
        store = _store_with(self.AGREEING)
        model = Model(store, make_inventory(), strict_conflicts=True)
        deploy_bundle(model, parse_bundle(self.BUNDLE.format(name="agreeing")))
        assert run_to_convergence(model).converged
        assert model.units["app/0"].status == "active"

    def test_one_handler_setting_two_statuses_is_not_a_conflict(self, make_inventory):
        store = _store_with(self.RESTLESS)
        model = Model(store, make_inventory(), strict_conflicts=True)
        deploy_bundle(model, parse_bundle(self.BUNDLE.format(name="restless")))
        assert run_to_convergence(model).converged
        assert model.units["app/0"].status == "active"


class TestDivergence:
    METRONOME = (
        "name: metronome\n"
        "series: [xenial]\n"
        "handlers:\n"
        "  - on: install\n"
        "    do:\n"
        "      - set-status: active\n"
        "      - set-state: ping\n"
        "  - on: update-status\n"
        "    when: [ping]\n"
        "    do:\n"
        "      - clear-state: ping\n"
        "      - set-state: pong\n"
        "  - on: update-status\n"
        "    when: [pong]\n"
        "    do:\n"
        "      - clear-state: pong\n"
        "      - set-state: ping\n"
    )

    def test_flag_oscillation_exhausts_budget(self, make_inventory):
        store = _store_with(self.METRONOME)
        model = Model(store, make_inventory())
        deploy_bundle(
            model,
            parse_bundle("applications:\n  tick:\n    charm: cs:metronome\n    num_units: 1\n"),
        )
        assert run_to_convergence(model).converged
        # Each beat re-arms the other handler's guard, so the queue never
        # drains: this is the one way to diverge, and the budget catches it.
        update_status(model)
        result = run_to_convergence(model, budget=60)
        assert result.outcome == "budget-exhausted"
        assert result.events_processed == 60
        assert not model.converged

    def test_budget_must_be_positive(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(EngineError, match="budget must be positive"):
            run_to_convergence(model, budget=0)


class TestFailAction:
    FRAGILE = (
        "name: fragile\n"
        "series: [xenial]\n"
        "handlers:\n"
        "  - on: install\n"
        "    do:\n"
        "      - fail: disk on fire\n"
        "      - set-status: active\n"
    )

    def test_fail_sets_error_and_aborts_handler(self, make_inventory):
        store = _store_with(self.FRAGILE)
        model = Model(store, make_inventory())
        deploy_bundle(
            model,
            parse_bundle("applications:\n  app:\n    charm: cs:fragile\n    num_units: 1\n"),
        )
        assert run_to_convergence(model).converged
        unit = model.units["app/0"]
        assert unit.status == "error"
        assert unit.message == "disk on fire"


class TestUpdateStatus:
    def test_enqueues_one_event_per_unit(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        assert update_status(model) == 2
        assert update_status(model, "moodle") == 1
        model.event_queue.clear()

    def test_unknown_application(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        with pytest.raises(UnknownEntityError):
            update_status(model, "mysql")

    def test_hash_ignores_generation(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        before = state_hash(model)
        generation = model.generation
        update_status(model)
        run_to_convergence(model)
        assert model.generation > generation
        assert state_hash(model) == before


class TestCheckpoint:
    def test_mid_flight_resume_reaches_same_state(self, store, make_inventory):
        reference = Model(store, make_inventory())
        deploy_bundle(reference, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(reference)
        target = state_hash(reference)

        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        for _ in range(5):
            step(model)
        resumed = load_checkpoint(checkpoint(model), store)
        run_to_convergence(resumed)
        assert state_hash(resumed) == target

    def test_round_trip_preserves_everything_observable(self, deploy_fixture):
        model, _ = deploy_fixture(SCALED_BUNDLE)
        doc = checkpoint(model)
        restored = load_checkpoint(doc, builtin_store())
        assert state_hash(restored) == state_hash(model)
        assert checkpoint(restored) == doc

    def test_seen_events_survive_for_redelivery(self, store, make_inventory):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        # Stop right before the relation data lands, while start@moodle/0
        # is already recorded as seen-but-unrunnable.
        for _ in range(8):
            step(model)
        restored = load_checkpoint(checkpoint(model), store)
        assert ("start", "", "", "") in flatten_seen(restored.units["moodle/0"].seen)
        run_to_convergence(restored)
        assert restored.units["moodle/0"].status == "active"

    def test_seen_keys_load_straight_from_the_document(self, store, make_inventory):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(SCALED_BUNDLE))
        for _ in range(12):
            step(model)
        text = statefile.dump(checkpoint(model))
        doc = statefile.load(text)
        restored = load_checkpoint(doc, store)
        for unit_id, body in doc["units"].items():
            assert body["seen"]
            assert flatten_seen(restored.units[unit_id].seen) == {
                (kind, name, payload, remote)
                for kind, name, payload, remotes in body["seen"]
                for remote in remotes
            }
        assert statefile.dump(checkpoint(restored)) == text

    def test_restored_events_equal_and_hash_like_the_engines(self, store, make_inventory):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(SCALED_BUNDLE))
        for _ in range(6):
            step(model)
        doc = statefile.load(statefile.dump(checkpoint(model)))
        restored = load_checkpoint(doc, store)
        assert list(restored.event_queue) == list(model.event_queue)
        dispatched = 0
        for built, loaded in zip(model.event_queue, restored.event_queue):
            assert (type(loaded), type(loaded.kind)) == (Event, EventKind)
            assert hash(loaded) == hash(built) and hash(loaded.kind) == hash(built.kind)
            charm = restored.applications[loaded.target.partition("/")[0]].charm
            handlers = [(index, handler) for index, handler in enumerate(charm.handlers)
                        if handler.on == built.kind]
            assert list(charm.dispatch.get(loaded.kind, ())) == handlers, loaded.render()
            dispatched += bool(handlers)
        assert dispatched

    def test_restoring_resolves_no_charm(self, store, make_inventory):
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        lacking = CharmStore()
        lacking.register_charm(store.resolve_charm("cs:postgresql"))
        restored = load_checkpoint(checkpoint(model), lacking)
        assert state_hash(restored) == state_hash(model)
        before = checkpoint(restored)
        assert restored.event_queue[0].target == "moodle/0"
        with pytest.raises(CharmNotFoundError, match="cs:~csd-garr/moodle"):
            step(restored)
        assert checkpoint(restored) == before
        postgresql = restored.applications["postgresql"]
        assert postgresql.charm is lacking.resolve_charm("cs:postgresql")

    def test_external_inventory(self, deploy_fixture, store):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        doc = checkpoint(model, include_inventory=False)
        assert "inventory" not in doc
        with pytest.raises(EngineError, match="no embedded inventory"):
            load_checkpoint(doc, store)
        restored = load_checkpoint(doc, store, inventory=model.inventory)
        assert state_hash(restored) == state_hash(model)


# A field of a seen key: relation ids and payloads hold spaces and colons.
_seen_field = st.text(alphabet="ab-/: 0", max_size=8)
_seen_remotes = st.sets(
    st.one_of(st.just(""), st.from_regex(r"[a-z]{1,6}/[0-9]{1,3}", fullmatch=True)),
    min_size=1, max_size=600,
)
# One unit's seen events: remotes by kind, name and payload.
_unit_seen = st.dictionaries(
    st.tuples(_seen_field, _seen_field, _seen_field), _seen_remotes, max_size=5
)
_FLEET_GROUP = {
    ("relation-joined", "reverseproxy", "moodle:website haproxy:reverseproxy"):
        {f"moodle/{i}" for i in range(600)},
    ("install", "", ""): {""},
}


class TestUnitCounter:
    """A unit takes its application's ``unit_counter`` as its index, so a
    checkpoint whose counter is not above every unit's index would give the
    next unit a live unit's id: the load refuses it."""

    @pytest.mark.parametrize("counter", [0, 1, 2])
    def test_stale_counter_is_refused(self, deploy_fixture, counter):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        add_unit(model, "moodle", count=2)
        doc = checkpoint(model)
        doc["applications"]["moodle"]["unit_counter"] = counter
        with pytest.raises(engine.MalformedCheckpointError) as err:
            load_checkpoint(doc, builtin_store())
        assert str(err.value) == (f"application 'moodle' has unit_counter {counter}, "
                                  f"not above unit 'moodle/{counter}'")

    def test_unit_of_another_application_is_refused(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        doc = checkpoint(model)
        doc["units"]["moodle/0"]["application"] = "postgresql"
        with pytest.raises(engine.MalformedCheckpointError,
                           match="unit 'moodle/0' is not a unit of application 'postgresql'"):
            load_checkpoint(doc, builtin_store())

    def test_unit_of_a_missing_application_is_refused(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        doc = checkpoint(model)
        del doc["applications"]["moodle"]
        with pytest.raises(engine.MalformedCheckpointError) as err:
            load_checkpoint(doc, builtin_store())
        assert str(err.value) == ("unit 'moodle/0' is a unit of application 'moodle', "
                                  "which the model lacks")

    def test_counter_above_every_index_loads_and_numbers_on(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        add_unit(model, "moodle", count=2)
        remove_unit(model, "moodle/2")
        doc = checkpoint(model)
        doc["applications"]["moodle"]["unit_counter"] = 7
        restored = load_checkpoint(doc, builtin_store())
        assert add_unit(restored, "moodle") == ["moodle/7"]
        assert restored.unit_ids_of("moodle") == ["moodle/0", "moodle/1", "moodle/7"]


class TestGroupedSeen:
    """A unit's seen keys are held as sorted groups ``[kind, name, payload,
    [remote, ...]]``, which ``checkpoint`` writes as held and
    ``load_checkpoint`` restores.  ``tests/test_step.py`` checks that
    ``step`` builds the groups the reference regroups from its set."""

    @given(units=st.lists(_unit_seen, min_size=1, max_size=3))
    @example(units=[_FLEET_GROUP])
    @settings(deadline=None, max_examples=60)
    def test_grouped_seen_round_trips(self, units):
        store = builtin_store()
        model = Model(store, Inventory())
        model.applications["app"] = engine.Application("app", "cs:haproxy", "xenial", store,
                                                       unit_counter=len(units))
        expected = {}
        for index, groups in enumerate(units):
            unit_id = f"app/{index}"
            expected[unit_id] = {(*key, remote) for key, remotes in groups.items()
                                 for remote in remotes}
            model.units[unit_id] = Unit(id=unit_id, app="app", machine=str(index),
                                        seen=seen_groups_oracle(expected[unit_id]))
        text = statefile.dump(checkpoint(model))
        doc = statefile.load(text)
        for index, groups in enumerate(units):
            assert doc["units"][f"app/{index}"]["seen"] == sorted(
                [*key, sorted(remotes)] for key, remotes in groups.items()
            )
        restored = load_checkpoint(doc, store)
        assert {unit_id: flatten_seen(unit.seen)
                for unit_id, unit in restored.units.items()} == expected
        assert statefile.dump(checkpoint(restored)) == text


def _shuffled(doc: dict) -> dict:
    """``doc`` with every unit's seen groups, and each group's remotes, in
    reverse order."""
    for body in doc["units"].values():
        body["seen"] = [[*key, remotes[::-1]] for *key, remotes in reversed(body["seen"])]
    return doc


class TestLazySeen:
    """``load_checkpoint`` keeps each unit's seen groups as read and looks
    only at the first; the unit's first step, or the next checkpoint,
    checks them all."""

    @pytest.fixture
    def model(self, store, make_inventory):
        """Mid-flight, with postgresql/0 joined by several moodle units."""
        model = Model(store, make_inventory(6))
        deploy_bundle(model, parse_bundle(SCALED_BUNDLE))
        add_unit(model, "moodle", count=2)
        for _ in range(14):
            step(model)
        return model

    @pytest.fixture
    def doc(self, model):
        return statefile.load(statefile.dump(checkpoint(model)))

    @pytest.mark.parametrize("flat", [False, True])
    def test_seen_equals_the_eager_set(self, store, doc, flat):
        assert any(len(remotes) > 1 for body in doc["units"].values()
                   for *_, remotes in body["seen"])
        if flat:  # the older ``[kind, name, payload, remote]`` entries
            for body in doc["units"].values():
                body["seen"] = [[kind, name, payload, remote]
                                for kind, name, payload, remotes in body["seen"]
                                for remote in remotes]
        restored = load_checkpoint(doc, store)
        for unit_id, body in doc["units"].items():
            assert flatten_seen(restored.units[unit_id].seen) == flatten_seen(body["seen"])

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_checkpoint_text_is_unchanged(self, store, model, doc, order):
        text = statefile.dump(doc)
        loaded = statefile.load(text)
        if order == "shuffled":
            assert statefile.dump(_shuffled(loaded)) != text
        assert statefile.dump(checkpoint(load_checkpoint(loaded, store))) == text
        restored = load_checkpoint(loaded, store)
        step(model)
        stepped = restored.units[step(restored).event.target]
        assert stepped.seen == seen_groups_oracle(flatten_seen(stepped.seen))
        assert statefile.dump(checkpoint(restored)) == statefile.dump(checkpoint(model))
        converged, reference = load_checkpoint(loaded, store), load_checkpoint(doc, store)
        for each in (converged, reference):
            assert run_to_convergence(each).converged
        assert statefile.dump(checkpoint(converged)) == statefile.dump(checkpoint(reference))
        assert state_hash(converged) == state_hash(reference)

    def test_status_builds_no_seen_set(self, store, doc, monkeypatch):
        calls = []
        for name in ("normalized", "in_order"):
            def spy(*args, real=getattr(seen, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(seen, name, spy)
        restored = load_checkpoint(doc, store)
        status_snapshot(restored)
        state_hash(restored)
        assert calls == []
        step(restored)  # checks the stepped unit's groups before it adds to them
        assert calls == ["normalized", "in_order"]
        checkpoint(restored)  # and every other unit's
        assert calls == ["normalized", "in_order"] * len(restored.units)

    def test_a_malformed_group_fails_a_step_before_it_takes_its_event(self, store, doc):
        target = doc["queue"][0][2]
        groups = doc["units"][target]["seen"]
        assert len(groups) > 1  # the load looks at the first group only
        groups[-1] = groups[-1][:3]
        restored = load_checkpoint(doc, store)
        with pytest.raises(MalformedSeenError, match=f"seen of unit '{target}'"):
            step(restored)
        assert restored.generation == doc["generation"]
        assert [list(event.kind) + list(event[1:]) for event in restored.event_queue] == doc["queue"]

    def test_steps_change_neither_the_document_nor_a_checkpoint(self, store, model, doc):
        text = statefile.dump(doc)
        stepped, other = load_checkpoint(doc, store), load_checkpoint(doc, store)
        run_to_convergence(stepped)
        assert statefile.dump(checkpoint(stepped)) != text
        assert statefile.dump(doc) == text
        assert statefile.dump(checkpoint(other)) == text
        taken = checkpoint(model)
        before = copy.deepcopy(taken)
        run_to_convergence(model)
        assert checkpoint(model)["units"] != before["units"]
        assert taken == before


class TestStatusSnapshot:
    def test_snapshot_shape(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        snap = status_snapshot(model)
        assert snap["state_hash"] == state_hash(model)
        assert snap["pending_events"] == 0
        assert snap["units"]["moodle/0"]["status"] == "active"
        assert snap["applications"]["postgresql"]["units"] == ["postgresql/0"]
        machine = model.units["moodle/0"].machine
        assert snap["machines"][machine]["state"] == "acquired"

    @pytest.mark.parametrize("bundle_text", [MOODLE_BUNDLE, SCALED_BUNDLE])
    def test_snapshot_is_the_parsed_hash_text(self, deploy_fixture, monkeypatch, bundle_text):
        """The snapshot walks the model once, writing the hash text, and is
        that text parsed, with the generation and the text's digest."""
        model, _ = deploy_fixture(bundle_text, machines=8)
        walks = []
        write = engine._state_text

        def counting_write(model, *layout):
            walks.append(model)
            return write(model, *layout)

        monkeypatch.setattr(engine, "_state_text", counting_write)
        snap = status_snapshot(model)
        assert len(walks) == 1
        assert (json.dumps(snap, sort_keys=True)
                == json.dumps(status_snapshot_oracle(model), sort_keys=True))


class TestDeploymentErrors:
    def test_redeploying_an_application(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE, machines=8)
        with pytest.raises(DeploymentError, match="already deployed"):
            deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))

    def test_invalid_bundle_is_rejected_up_front(self, store, make_inventory):
        model = Model(store, make_inventory())
        with pytest.raises(DeploymentError, match="does not validate"):
            deploy_bundle(
                model,
                parse_bundle("applications:\n  app:\n    charm: cs:nonesuch\n    num_units: 1\n"),
            )

    def test_series_mismatch_rolls_back(self, store, make_inventory):
        model = Model(store, make_inventory())
        bundle = parse_bundle(
            "applications:\n"
            "  moodle:\n"
            "    charm: cs:~csd-garr/moodle\n"
            "    num_units: 1\n"
            "    to: [0]\n"
            "machines:\n"
            "  \"0\":\n"
            "    series: trusty\n"
        )
        with pytest.raises(DeploymentError, match="does not support series"):
            deploy_bundle(model, bundle)
        assert model.applications == {}
        assert model.units == {}
        assert model.machines == set()
        assert all(r.state == "ready" for r in model.inventory.machines.values())

    @pytest.mark.parametrize("kind", ["machine", "lxd"])
    def test_add_unit_refuses_an_unsupported_series(self, store, kind):
        """``add_unit`` refuses a target whose series the charm lacks, with
        ``apply_step``'s message, and rolls back the acquisition, the
        container and the instance charge."""
        inventory = Inventory()
        inventory.add_zone("garr-01", "az1")
        for series in ("xenial",) * 3 + ("bionic",) * 3:
            inventory.enlist(region="garr-01", az="az1", arch="amd64", cores=4,
                             mem=8192, disk=102400, series=series)
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        for node in ("garr", project):
            tree.set_quota(node, QuotaSet(vcpus=8, ram=16384, disk=100, instances=8))
        model = Model(store, inventory, project=project, quota_tree=tree)
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(model)
        assert inventory.machines["0"].series == "xenial"
        if kind == "machine":  # a ready bionic machine, acquired by the placement
            placement, target = Placement.on_machine("3"), "3"
        else:  # a container on an acquired bionic host inherits its series
            inventory.acquire(Constraints(), machine="4")
            placement, target = Placement.in_container("lxd", "4"), "4/lxd/0"
        before = (state_hash(model), inventory.dump(), tree.dump(), checkpoint(model))
        with pytest.raises(DeploymentError) as raised:
            add_unit(model, "moodle", placement=placement)
        assert str(raised.value) == (
            f"charm 'moodle' does not support series 'bionic' of machine '{target}'")
        assert (state_hash(model), inventory.dump(), tree.dump(), checkpoint(model)) == before
        assert add_unit(model, "moodle", placement=Placement.on_machine("1")) == ["moodle/1"]
        assert tree.nodes[project].usage.instances == 3

    def test_placement_failure_rolls_back(self, store):
        inventory = Inventory()
        inventory.add_zone("garr-01", "az1")
        inventory.enlist(
            region="garr-01", az="az1", arch="amd64",
            cores=1, mem=1024, disk=10240, series="xenial",
        )
        model = Model(store, inventory)
        # Machine 0 wants more memory than anything in the pool offers.
        with pytest.raises(Exception):
            deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        assert model.applications == {}
        assert all(r.state == "ready" for r in inventory.machines.values())


class TestQuotaIntegration:
    def _tree(self, **quota):
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(**quota))
        tree.set_quota(project, QuotaSet(**quota))
        return tree, project

    def test_deploy_charges_the_project(self, store, make_inventory):
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=10)
        model = Model(store, make_inventory(), project=project, quota_tree=tree)
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        usage = tree.find(project).usage
        assert usage.instances == 2
        assert usage.vcpus == 1
        assert usage.ram == 2048
        assert usage.disk == 20  # 20480 MiB rounds to 20 GiB

    def test_overcommit_is_rejected_and_rolled_back(self, store, make_inventory):
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=1)
        model = Model(store, make_inventory(), project=project, quota_tree=tree)
        with pytest.raises(QuotaExceededError):
            deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        assert model.applications == {}
        assert tree.find(project).usage.instances == 0
        assert all(r.state == "ready" for r in model.inventory.machines.values())

    def test_add_and_remove_unit_track_instances(self, store, make_inventory):
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=10)
        model = Model(store, make_inventory(), project=project, quota_tree=tree)
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(model)
        add_unit(model, "moodle")
        assert tree.find(project).usage.instances == 3
        run_to_convergence(model)
        remove_unit(model, "moodle/1")
        assert tree.find(project).usage.instances == 2

    def test_add_unit_respects_quota(self, store, make_inventory):
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=2)
        model = Model(store, make_inventory(), project=project, quota_tree=tree)
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(model)
        with pytest.raises(QuotaExceededError):
            add_unit(model, "moodle")
        assert model.unit_ids_of("moodle") == ["moodle/0"]

    def test_machine_charge_is_checkpointed_and_released(self, store, make_inventory):
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=10)
        model = Model(store, make_inventory(), project=project, quota_tree=tree)
        result = deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(model)
        host = result.machine_map["0"]
        doc = statefile.load(statefile.dump(checkpoint(model, include_inventory=True)))
        assert doc["machine_charges"] == {host: {"vcpus": 1, "ram": 2048, "disk": 20}}

        restored = load_checkpoint(doc, store, quota_tree=tree)
        for unit_id in ("postgresql/0", "moodle/0"):
            remove_unit(restored, unit_id)
        assert restored.inventory.machines[host].state == "ready"
        assert restored.machine_charges == {}
        assert tree.find(project).usage == QuotaSet()

    @pytest.mark.parametrize(
        ("removed_first", "taken"),
        [
            # The instance release fails before anything is released.
            ((), QuotaSet(instances=2)),
            # The instance release succeeds, then the freed host's charge fails.
            (("postgresql/0",), QuotaSet(vcpus=1)),
        ],
        ids=["instances", "machine-charge"],
    )
    def test_failed_removal_changes_nothing(self, store, make_inventory,
                                            removed_first, taken):
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=10)
        model = Model(store, make_inventory(), project=project, quota_tree=tree)
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(model)
        for first in removed_first:
            remove_unit(model, first)
        run_to_convergence(model)
        update_status(model)
        tree.release(project, taken)  # an operator takes the usage back by hand

        def observed():
            return (state_hash(model), checkpoint(model), model.inventory.dump(),
                    tree.dump(), list(model.event_queue))

        before = observed()
        with pytest.raises(ReleaseExceedsUsageError):
            remove_unit(model, "moodle/0")
        assert observed() == before
        assert run_to_convergence(model).converged

    def test_uncharged_and_older_checkpoints_hold_no_charge(self, store, make_inventory):
        # No project: nothing is charged, so nothing is recorded.
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        assert model.machine_charges == {}
        assert "machine_charges" not in checkpoint(model)
        # A checkpoint written before charges were recorded holds none.
        tree, project = self._tree(vcpus=8, ram=16384, disk=100, instances=10)
        charged = Model(store, make_inventory(), project=project, quota_tree=tree)
        deploy_bundle(charged, parse_bundle(MOODLE_BUNDLE))
        doc = checkpoint(charged)
        del doc["machine_charges"]
        assert load_checkpoint(doc, store, quota_tree=tree).machine_charges == {}


class TestEventHygiene:
    def test_events_for_dead_units_are_dropped(self, deploy_fixture):
        model, _ = deploy_fixture(MOODLE_BUNDLE)
        update_status(model)
        del model.units["moodle/0"]
        report = step(model)
        assert report.dropped
        assert report.handlers_run == 0
        run_to_convergence(model)

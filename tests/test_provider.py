"""Provider simulator: zones, enlistment, best-fit acquisition, containers."""

from __future__ import annotations

import random

import pytest

from fedweave.bundle import Constraints, parse_constraints
from fedweave.provider import (
    Inventory,
    ProviderError,
    UnknownZoneError,
    UnsatisfiableError,
    machine_sort_key,
)

from oracles import best_fit_oracle, machines_doc


def _zone(inv=None, region="garr-01", az="az1"):
    inv = inv or Inventory()
    inv.add_zone(region, az)
    return inv


def _enlist(inv, cores=4, mem=8192, disk=102400, **kw):
    kw.setdefault("region", "garr-01")
    kw.setdefault("az", "az1")
    kw.setdefault("arch", "amd64")
    kw.setdefault("series", "xenial")
    return inv.enlist(cores=cores, mem=mem, disk=disk, **kw)


class TestEnlistment:
    def test_sequential_string_ids(self):
        inv = _zone()
        assert [_enlist(inv).id for _ in range(3)] == ["0", "1", "2"]

    def test_enlisted_machines_are_ready(self):
        inv = _zone()
        assert _enlist(inv).state == "ready"

    def test_unknown_zone(self):
        with pytest.raises(UnknownZoneError, match="unknown zone"):
            _enlist(Inventory())

    @pytest.mark.parametrize("field,value", [("cores", 0), ("mem", -1), ("disk", True)])
    def test_capacities_must_be_positive_ints(self, field, value):
        inv = _zone()
        with pytest.raises(ProviderError, match="positive integer"):
            _enlist(inv, **{field: value})

    def test_ids_keep_counting_across_zones(self):
        inv = _zone()
        inv.add_zone("garr-02", "az1")
        _enlist(inv)
        record = _enlist(inv, region="garr-02")
        assert record.id == "1"


class TestSortKey:
    def test_numeric_ids_sort_numerically(self):
        assert machine_sort_key("2") < machine_sort_key("10")

    def test_container_ids_nest(self):
        assert machine_sort_key("0/lxd/2") < machine_sort_key("0/lxd/10")
        assert machine_sort_key("0") < machine_sort_key("0/lxd/0")

    def test_sorted_listing(self):
        ids = ["10", "2", "0/lxd/10", "0/lxd/2", "0"]
        assert sorted(ids, key=machine_sort_key) == ["0", "0/lxd/2", "0/lxd/10", "2", "10"]


class TestAcquisition:
    def test_best_fit_prefers_tightest_memory(self):
        inv = _zone()
        _enlist(inv, mem=16384)  # 0: roomy
        _enlist(inv, mem=4096)   # 1: snug
        record = inv.acquire(parse_constraints("mem=2048"))
        assert record.id == "1"
        assert record.state == "acquired"

    def test_disk_breaks_memory_ties(self):
        inv = _zone()
        _enlist(inv, disk=204800)
        _enlist(inv, disk=51200)
        assert inv.acquire(parse_constraints("root-disk=20480")).id == "1"

    def test_id_breaks_full_ties(self):
        inv = _zone()
        for _ in range(12):
            _enlist(inv)
        assert inv.acquire(Constraints()).id == "0"
        assert inv.acquire(Constraints()).id == "1"
        # and numerically, not lexically: free ids are 2..11
        for expected in ["2", "3", "4", "5", "6", "7", "8", "9", "10", "11"]:
            assert inv.acquire(Constraints()).id == expected

    def test_arch_is_equality(self):
        inv = _zone()
        _enlist(inv, arch="arm64")
        with pytest.raises(UnsatisfiableError):
            inv.acquire(parse_constraints("arch=amd64"))

    def test_tags_are_subset(self):
        inv = _zone()
        _enlist(inv, properties={"ssd"})
        _enlist(inv, properties={"ssd", "gpu"})
        assert inv.acquire(parse_constraints("tags=gpu,ssd")).id == "1"

    def test_acquired_machines_leave_the_pool(self):
        inv = _zone()
        _enlist(inv)
        inv.acquire(Constraints())
        with pytest.raises(UnsatisfiableError, match="no ready machine"):
            inv.acquire(Constraints())

    def test_region_and_az_scoping(self):
        inv = _zone()
        inv.add_zone("garr-01", "az2")
        inv.add_zone("garr-02", "az1")
        _enlist(inv)                      # 0 garr-01/az1
        _enlist(inv, az="az2")            # 1 garr-01/az2
        _enlist(inv, region="garr-02")    # 2 garr-02/az1
        assert inv.acquire(Constraints(), region="garr-02").id == "2"
        assert inv.acquire(Constraints(), region="garr-01", az="az2").id == "1"

    def test_machine_scoping(self):
        inv = _zone()
        _enlist(inv)
        _enlist(inv)
        assert inv.acquire(Constraints(), machine="1").id == "1"
        with pytest.raises(UnsatisfiableError, match="machine '1'"):
            inv.acquire(Constraints(), machine="1")

    def test_select_machine_is_pure(self):
        inv = _zone()
        _enlist(inv)
        first = inv.select_machine(Constraints())
        second = inv.select_machine(Constraints())
        assert first is second
        assert first.state == "ready"

    def test_container_release_resorts_a_ready_host(self):
        # A hand-written inventory may hold a container on a ready host.
        inv = Inventory.load({"machines": [
            {"id": "0", "region": "r", "az": "a", "cores": 4, "mem": 8192, "disk": 40960},
            {"id": "1", "region": "r", "az": "a", "cores": 4, "mem": 4096, "disk": 40960},
            {"id": "0/lxd/0", "region": "r", "az": "a", "cores": 1, "mem": 6144,
             "disk": 40960, "parent": "0", "kind": "lxd", "state": "acquired",
             "reserved": {"mem": 6144}},
        ]})
        assert inv.select_machine(Constraints()).id == "0"  # 2048 MiB free
        inv.release("0/lxd/0")
        assert inv.select_machine(Constraints()).id == "1"  # 4096 < 8192

    def test_unsatisfiable_message_names_constraints(self):
        inv = _zone()
        with pytest.raises(UnsatisfiableError, match="mem=999999"):
            inv.acquire(parse_constraints("mem=999999"))


class TestContainers:
    def _host(self):
        inv = _zone()
        _enlist(inv)
        host = inv.acquire(Constraints())
        return inv, host

    def test_id_embeds_host_and_kind(self):
        inv, host = self._host()
        container = inv.create_container(host.id, "lxd")
        assert container.id == "0/lxd/0"
        assert container.parent == "0"
        assert container.is_container()
        assert inv.create_container(host.id, "lxd").id == "0/lxd/1"

    def test_counters_are_monotonic_across_release(self):
        inv, host = self._host()
        first = inv.create_container(host.id, "lxd")
        inv.release(first.id)
        # Ids are never reused, so stale references cannot alias.
        assert inv.create_container(host.id, "lxd").id == "0/lxd/1"

    def test_constrained_container_reserves_capacity(self):
        inv, host = self._host()
        inv.create_container(host.id, "lxd", parse_constraints("cpu-cores=2 mem=4096"))
        assert host.free_cores() == 2
        assert host.free_mem() == 8192 - 4096

    def test_unconstrained_container_shares(self):
        inv, host = self._host()
        inv.create_container(host.id, "lxd")
        assert host.free_cores() == 4
        assert host.free_mem() == 8192

    def test_reservation_enforced(self):
        inv, host = self._host()
        with pytest.raises(UnsatisfiableError, match="container wants"):
            inv.create_container(host.id, "lxd", parse_constraints("mem=9000"))

    def test_reservations_accumulate(self):
        inv, host = self._host()
        inv.create_container(host.id, "lxd", parse_constraints("mem=5000"))
        with pytest.raises(UnsatisfiableError):
            inv.create_container(host.id, "lxd", parse_constraints("mem=5000"))

    def test_arch_mismatch(self):
        inv, host = self._host()
        with pytest.raises(ProviderError, match="does not match host arch"):
            inv.create_container(host.id, "lxd", parse_constraints("arch=arm64"))

    def test_no_nesting(self):
        inv, host = self._host()
        container = inv.create_container(host.id, "lxd")
        with pytest.raises(ProviderError, match="cannot nest"):
            inv.create_container(container.id, "lxd")

    def test_host_must_be_acquired(self):
        inv = _zone()
        _enlist(inv)
        with pytest.raises(ProviderError, match="not acquired"):
            inv.create_container("0", "lxd")

    @pytest.mark.parametrize("kind", ["docker", "kvm"])
    def test_unknown_kind(self, kind):
        inv, host = self._host()
        with pytest.raises(ProviderError, match="unknown container kind"):
            inv.create_container(host.id, kind)

    def test_unknown_host(self):
        inv = _zone()
        with pytest.raises(ProviderError, match="unknown machine"):
            inv.create_container("9", "lxd")

    def test_inherits_host_arch_and_series(self):
        inv = _zone()
        _enlist(inv, arch="arm64", series="trusty")
        host = inv.acquire(Constraints())
        container = inv.create_container(host.id, "lxd")
        assert (container.arch, container.series) == ("arm64", "trusty")

    def test_containers_never_selected_as_hosts(self):
        inv, host = self._host()
        inv.create_container(host.id, "lxd")
        with pytest.raises(UnsatisfiableError):
            inv.acquire(Constraints())


class TestRelease:
    def test_host_cycles_back_to_ready(self):
        inv = _zone()
        _enlist(inv)
        inv.acquire(Constraints())
        inv.release("0")
        assert inv.machines["0"].state == "ready"
        assert inv.acquire(Constraints()).id == "0"

    def test_container_release_returns_reservation(self):
        inv = _zone()
        _enlist(inv)
        host = inv.acquire(Constraints())
        container = inv.create_container(host.id, "lxd", parse_constraints("mem=4096"))
        inv.release(container.id)
        assert container.id not in inv.machines
        assert host.free_mem() == 8192
        assert host.containers == []

    def test_host_with_containers_refuses(self):
        inv = _zone()
        _enlist(inv)
        host = inv.acquire(Constraints())
        inv.create_container(host.id, "lxd")
        with pytest.raises(ProviderError, match="still hosts containers"):
            inv.release(host.id)

    def test_release_requires_acquired(self):
        inv = _zone()
        _enlist(inv)
        with pytest.raises(ProviderError, match="not acquired"):
            inv.release("0")

    def test_release_unknown(self):
        inv = _zone()
        with pytest.raises(ProviderError, match="unknown machine"):
            inv.release("17")


class TestSerialization:
    def test_round_trip_with_containers(self):
        inv = _zone()
        inv.add_zone("garr-02", "az1")
        _enlist(inv, properties={"ssd"})
        _enlist(inv, region="garr-02", arch="arm64")
        host = inv.acquire(Constraints(), region="garr-01")
        inv.create_container(host.id, "lxd", parse_constraints("mem=2048"))
        inv.create_container(host.id, "lxd")

        restored = Inventory.load_yaml(inv.dump_yaml())
        assert restored.dump() == inv.dump()
        assert restored.zones == inv.zones
        assert restored.machines["0"].free_mem() == inv.machines["0"].free_mem()
        # Counters survive, so the next container id is still fresh.
        assert restored.create_container("0", "lxd").id == "0/lxd/2"

    def test_round_trip_preserves_next_id(self):
        inv = _zone()
        _enlist(inv)
        inv2 = Inventory.load(inv.dump())
        assert _enlist(inv2).id == "1"

    def test_hand_written_seed(self):
        inv = Inventory.load_yaml(
            "machines:\n"
            "  - {region: garr-01, az: az1, constraints: 'cpu-cores=8 mem=16384'}\n"
            "  - {region: garr-01, az: az1, cores: 2, mem: 2048, disk: 20480}\n"
        )
        # Zones are inferred, defaults fill in, states default to ready.
        assert ("garr-01", "az1") in inv.zones
        assert inv.machines["0"].cores == 8
        assert inv.machines["1"].state == "ready"
        assert inv.machines["1"].arch == "amd64"
        inv.acquire(Constraints())

    def test_load_rejects_unknown_state(self):
        with pytest.raises(ProviderError, match="unknown state"):
            Inventory.load(
                {"machines": [{"id": "0", "region": "r", "az": "a",
                               "cores": 1, "mem": 1, "disk": 1, "state": "limbo"}]}
            )

    def test_load_rejects_orphan_container(self):
        with pytest.raises(ProviderError, match="unknown host"):
            Inventory.load(
                {"machines": [{"id": "9/lxd/0", "region": "r", "az": "a",
                               "cores": 1, "mem": 1, "disk": 1,
                               "state": "acquired", "parent": "9", "kind": "lxd"}]}
            )

    def test_load_rejects_non_mapping(self):
        with pytest.raises(ProviderError, match="must be a mapping"):
            Inventory.load([1, 2])

    def test_load_yaml_rejects_garbage(self):
        with pytest.raises(ProviderError, match="malformed inventory"):
            Inventory.load_yaml("machines: [unclosed\n")
        with pytest.raises(ProviderError, match="malformed inventory"):
            Inventory.load_yaml('{"machines": [')


class TestBestFitAgainstOracle:
    def test_random_inventories_match_oracle(self):
        rng = random.Random(0xFEED)
        archs = ["amd64", "arm64"]
        tag_pool = ["ssd", "gpu", "fast-net"]
        for _ in range(300):
            inv = Inventory()
            for region in ("garr-01", "garr-02"):
                for az in ("az1", "az2"):
                    inv.add_zone(region, az)
            for _ in range(rng.randint(0, 5)):
                record = inv.enlist(
                    region=rng.choice(["garr-01", "garr-02"]),
                    az=rng.choice(["az1", "az2"]),
                    arch=rng.choice(archs),
                    cores=rng.randint(1, 8),
                    mem=rng.choice([1024, 2048, 4096, 8192]),
                    disk=rng.choice([10240, 20480, 102400]),
                    series="xenial",
                    properties={t for t in tag_pool if rng.random() < 0.3},
                )
                if rng.random() < 0.25:
                    record.state = "acquired"
            want = {}
            if rng.random() < 0.5:
                want["mem"] = rng.choice([512, 2048, 4096])
            if rng.random() < 0.5:
                want["root-disk"] = rng.choice([5120, 20480])
            if rng.random() < 0.3:
                want["cpu-cores"] = rng.randint(1, 4)
            if rng.random() < 0.3:
                want["arch"] = rng.choice(archs)
            if rng.random() < 0.3:
                want["tags"] = [t for t in tag_pool if rng.random() < 0.4]
            region = rng.choice([None, "garr-01", "garr-02"])
            az = rng.choice([None, "az1"])

            expected = best_fit_oracle(machines_doc(inv), want, region=region, az=az)
            constraints = Constraints(
                arch=want.get("arch"),
                cpu_cores=want.get("cpu-cores"),
                mem=want.get("mem"),
                root_disk=want.get("root-disk"),
                tags=frozenset(want.get("tags") or ()),
            )
            chosen = inv.select_machine(constraints, region=region, az=az)
            assert (chosen.id if chosen else None) == expected

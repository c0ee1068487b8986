"""Federation: region lifecycle, catalog replication, identity mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedweave.federation import (
    Federation,
    FederationError,
    IdentityError,
    RegionNotProductionError,
    UnknownRegionError,
    normalise_eppn,
)

GOOD_ENDPOINTS = {
    "compute": "https://compute.garr-02.example.org:8774/v2.1",
    "volume": "https://volume.garr-02.example.org:8776/v3",
    "image": "https://image.garr-02.example.org:9292",
}


def _with_machine(fed, name):
    fed.enlist_machine(
        name, arch="amd64", cores=4, mem=8192, disk=102400, series="xenial"
    )


def _catalog(fed):
    return [entry.as_tuple() for entry in fed.master_catalog]


def _production_region(fed=None, name="garr-02"):
    fed = fed or Federation()
    fed.register_region(name, GOOD_ENDPOINTS)
    _with_machine(fed, name)
    report = fed.validate_region(name)
    assert report.promoted
    return fed


class TestRegionLifecycle:
    def test_new_region_is_validating_and_invisible(self):
        fed = Federation()
        region = fed.register_region("garr-02", GOOD_ENDPOINTS)
        assert region.status == "validating"
        assert _catalog(fed) == []
        assert fed.master_generation == 0

    def test_promotion_inserts_catalog_entries(self):
        fed = _production_region()
        assert fed.regions["garr-02"].status == "production"
        assert fed.master_generation == 1
        assert _catalog(fed) == [
            ("garr-02", "compute", GOOD_ENDPOINTS["compute"]),
            ("garr-02", "image", GOOD_ENDPOINTS["image"]),
            ("garr-02", "volume", GOOD_ENDPOINTS["volume"]),
        ]

    def test_missing_service_stays_validating(self):
        fed = Federation()
        endpoints = {k: v for k, v in GOOD_ENDPOINTS.items() if k != "volume"}
        fed.register_region("garr-03", endpoints)
        _with_machine(fed, "garr-03")
        report = fed.validate_region("garr-03")
        assert not report.promoted
        assert fed.regions["garr-03"].status == "validating"
        assert _catalog(fed) == []
        failed = [c for c in report.checks if not c.passed]
        assert [c.check for c in failed] == ["required-services"]
        assert "volume" in failed[0].detail

    def test_malformed_endpoint_stays_validating(self):
        fed = Federation()
        endpoints = dict(GOOD_ENDPOINTS, image="keystone.local:5000")  # no scheme
        fed.register_region("garr-03", endpoints)
        _with_machine(fed, "garr-03")
        report = fed.validate_region("garr-03")
        assert not report.promoted
        assert any(c.check == "endpoint-format" and not c.passed for c in report.checks)

    def test_empty_inventory_fails_the_probe(self):
        fed = Federation()
        fed.register_region("garr-03", GOOD_ENDPOINTS)
        report = fed.validate_region("garr-03")
        assert not report.promoted
        probe = next(c for c in report.checks if c.check == "probe-acquire")
        assert not probe.passed

    def test_probe_releases_the_machine(self):
        fed = _production_region()
        inventory = fed.regions["garr-02"].inventory
        assert all(r.state == "ready" for r in inventory.machines.values())

    def test_validation_is_repeatable_until_promoted(self):
        fed = Federation()
        fed.register_region("garr-03", GOOD_ENDPOINTS)
        assert not fed.validate_region("garr-03").promoted  # probe fails
        _with_machine(fed, "garr-03")
        assert fed.validate_region("garr-03").promoted
        with pytest.raises(FederationError, match="already production"):
            fed.validate_region("garr-03")

    def test_duplicate_registration(self):
        fed = Federation()
        fed.register_region("garr-02", GOOD_ENDPOINTS)
        with pytest.raises(FederationError, match="already registered"):
            fed.register_region("garr-02", GOOD_ENDPOINTS)

    def test_rejected_region_can_reregister(self):
        fed = Federation()
        fed.register_region("garr-02", {"compute": "https://x.example.org"})
        fed.reject_region("garr-02")
        assert fed.regions["garr-02"].status == "rejected"
        with pytest.raises(FederationError, match="was rejected"):
            _with_machine(fed, "garr-02")
        region = fed.register_region("garr-02", GOOD_ENDPOINTS)
        assert region.status == "validating"

    def test_cannot_reject_production(self):
        fed = _production_region()
        with pytest.raises(FederationError, match="cannot reject production"):
            fed.reject_region("garr-02")

    def test_no_endpoints_rejected_at_registration(self):
        with pytest.raises(FederationError, match="declares no endpoints"):
            Federation().register_region("garr-02", {})

    def test_unknown_region(self):
        with pytest.raises(UnknownRegionError):
            Federation().validate_region("atlantis")

    def test_production_gate(self):
        fed = Federation()
        fed.register_region("garr-03", GOOD_ENDPOINTS)
        with pytest.raises(RegionNotProductionError, match="validating"):
            fed.production_region("garr-03")
        fed2 = _production_region()
        assert fed2.production_region("garr-02").name == "garr-02"

    def test_validation_report_render(self):
        fed = Federation()
        fed.register_region("garr-03", GOOD_ENDPOINTS)
        text = fed.validate_region("garr-03").render()
        assert "required-services: pass" in text
        assert "probe-acquire: fail" in text
        assert "still validating" in text


class TestCatalogReplication:
    def test_sync_copies_master_to_replica(self):
        fed = _production_region()
        assert fed.replica_catalog("garr-02") == ([], 0)
        generation = fed.sync_catalog("garr-02")
        entries, replica_generation = fed.replica_catalog("garr-02")
        assert generation == replica_generation == fed.master_generation
        assert entries == fed.master_catalog

    def test_replica_goes_stale_until_next_sync(self):
        fed = _production_region()
        fed.sync_catalog("garr-02")
        # Promote a second region: the master moves on, the replica lags.
        fed.register_region("garr-04", GOOD_ENDPOINTS)
        _with_machine(fed, "garr-04")
        fed.validate_region("garr-04")
        entries, generation = fed.replica_catalog("garr-02")
        assert generation == 1 and fed.master_generation == 2
        assert len(entries) == 3 and len(fed.master_catalog) == 6
        fed.sync_catalog("garr-02")
        entries, generation = fed.replica_catalog("garr-02")
        assert generation == 2 and entries == fed.master_catalog

    def test_only_production_regions_sync(self):
        fed = Federation()
        fed.register_region("garr-03", GOOD_ENDPOINTS)
        with pytest.raises(RegionNotProductionError):
            fed.sync_catalog("garr-03")

    def test_replica_is_a_snapshot_not_a_view(self):
        fed = _production_region()
        fed.sync_catalog("garr-02")
        entries, _ = fed.replica_catalog("garr-02")
        fed.master_catalog.clear()
        assert len(entries) == 3


class TestIdentity:
    def test_normalisation(self):
        assert normalise_eppn("  Alice@Unito.IT ") == "alice@unito.it"

    @pytest.mark.parametrize(
        "eppn", ["alice", "alice@@unito.it", "a@b@c", "@unito.it", "alice@", 42]
    )
    def test_malformed_eppns(self, eppn):
        with pytest.raises(IdentityError):
            normalise_eppn(eppn)

    def test_mapping_is_idempotent_and_case_insensitive(self):
        fed = Federation()
        first = fed.map_identity("Alice@Unito.IT")
        assert first == "user-0000"
        assert fed.map_identity("alice@unito.it") == first
        assert fed.map_identity("ALICE@UNITO.IT") == first
        assert len(fed.users) == 1
        assert fed.users[first] == {"eppn": "alice@unito.it", "domain": "default"}

    def test_ids_are_sequential(self):
        fed = Federation()
        assert fed.map_identity("a@x.org") == "user-0000"
        assert fed.map_identity("b@x.org") == "user-0001"
        assert fed.map_identity("c@y.org") == "user-0002"

    @given(
        eppns=st.lists(
            st.from_regex(r"[a-z]{1,6}@[a-z]{1,6}\.(it|org)", fullmatch=True),
            min_size=1,
            max_size=30,
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_one_user_per_distinct_eppn(self, eppns):
        fed = Federation()
        for eppn in eppns:
            fed.map_identity(eppn)
            fed.map_identity(eppn.upper())
        assert len(fed.users) == len(set(eppns))
        assert len(fed.identities) == len(fed.users)


class TestSerialization:
    def test_round_trip(self):
        fed = _production_region()
        fed.sync_catalog("garr-02")
        fed.register_region("garr-03", {"compute": "https://c.example.org"})
        fed.map_identity("alice@unito.it")
        fed.map_identity("bob@garr.it")

        restored = Federation.load_yaml(fed.dump_yaml())
        assert restored.dump() == fed.dump()
        assert restored.regions["garr-02"].status == "production"
        assert restored.replica_catalog("garr-02") == fed.replica_catalog("garr-02")
        # Sequential numbering continues where it stopped.
        assert restored.map_identity("carol@unipd.it") == "user-0002"
        # The restored inventory still answers probes.
        report_region = restored.production_region("garr-02")
        assert len(report_region.inventory.machines) == 1

    def test_load_rejects_unknown_status(self):
        with pytest.raises(FederationError, match="unknown status"):
            Federation.load({"regions": {"x": {"endpoints": {}, "status": "limbo"}}})

    def test_load_rejects_a_region_name_that_is_not_a_string(self):
        # Only a YAML document can give a mapping key that is not a string.
        with pytest.raises(FederationError) as raised:
            Federation.load_yaml("regions:\n  5: {endpoints: {}, status: validating}\n")
        assert str(raised.value) == ("malformed federation document: "
                                     "region name 5 is not a string")

    def test_load_rejects_an_identity_key_that_is_not_a_string(self):
        # As for a region name, only a YAML document can give one.
        with pytest.raises(FederationError) as raised:
            Federation.load_yaml("identities:\n  5: user-0000\n")
        assert str(raised.value) == ("malformed federation document: "
                                     "identity 5 maps to 'user-0000'; each must be a string")

    def test_empty_document(self):
        fed = Federation.load_yaml("")
        assert fed.regions == {}
        assert fed.required_services == frozenset({"compute", "volume", "image"})

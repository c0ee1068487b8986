"""Quota tree: the three consistency rules, local admission, roles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedweave.quota import (
    ChildSumExceedsQuotaError,
    ProjectTree,
    QuotaBelowUsageError,
    QuotaError,
    QuotaExceededError,
    QuotaSet,
    ReleaseExceedsUsageError,
    SiblingSumExceedsParentError,
    UnknownProjectError,
)


def _tree():
    tree = ProjectTree()
    tree.add_domain("garr")
    return tree


class TestQuotaSet:
    def test_defaults_to_zero(self):
        assert QuotaSet() == QuotaSet(vcpus=0, ram=0, disk=0, instances=0)

    @pytest.mark.parametrize("bad", [{"vcpus": -1}, {"ram": 1.5}, {"disk": True}])
    def test_rejects_non_counts(self, bad):
        with pytest.raises(QuotaError, match="non-negative integer"):
            QuotaSet(**bad)

    def test_componentwise_arithmetic(self):
        a = QuotaSet(vcpus=2, ram=1024, disk=10, instances=1)
        b = QuotaSet(vcpus=1, ram=512, disk=5, instances=1)
        assert a.add(b) == QuotaSet(vcpus=3, ram=1536, disk=15, instances=2)
        assert a.subtract(b) == QuotaSet(vcpus=1, ram=512, disk=5, instances=0)

    def test_subtract_saturates_at_zero(self):
        assert QuotaSet(vcpus=1).subtract(QuotaSet(vcpus=5)) == QuotaSet()

    def test_exceeding_components(self):
        over = QuotaSet(vcpus=9, disk=99).exceeding_components(QuotaSet(vcpus=8, disk=99))
        assert over == ["vcpus"]

    def test_dict_round_trip(self):
        q = QuotaSet(vcpus=4, ram=8192, disk=100, instances=10)
        assert QuotaSet.from_dict(q.as_dict()) == q

    def test_from_dict_rejects_unknown_component(self):
        with pytest.raises(QuotaError, match="unknown quota component"):
            QuotaSet.from_dict({"floppy_drives": 2})


class TestStructure:
    def test_project_ids_are_paths(self):
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        assert cloud == "garr/cloud"
        assert tree.create_project("dev", cloud) == "garr/cloud/dev"
        assert tree.nodes["garr/cloud/dev"].domain == "garr"

    def test_duplicate_domain(self):
        tree = _tree()
        with pytest.raises(QuotaError, match="already exists"):
            tree.add_domain("garr")

    def test_duplicate_project(self):
        tree = _tree()
        tree.create_project("cloud", "garr")
        with pytest.raises(QuotaError, match="already exists"):
            tree.create_project("cloud", "garr")

    def test_unknown_parent(self):
        with pytest.raises(UnknownProjectError):
            _tree().create_project("cloud", "unipd")

    @pytest.mark.parametrize("name", ["", "a/b", " padded ", 3])
    def test_invalid_names(self, name):
        with pytest.raises(QuotaError, match="invalid project name"):
            _tree().create_project(name, "garr")

    def test_find_by_id_and_bare_name(self):
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        assert tree.find("garr/cloud").id == cloud
        assert tree.find("cloud").id == cloud
        assert tree.find("CLOUD").id == cloud  # case-insensitive

    def test_find_ambiguous(self):
        tree = _tree()
        tree.add_domain("unipd")
        tree.create_project("cloud", "garr")
        tree.create_project("cloud", "unipd")
        with pytest.raises(QuotaError, match="ambiguous"):
            tree.find("cloud")
        # Full paths still resolve.
        assert tree.find("unipd/cloud").domain == "unipd"

    def test_find_unknown(self):
        with pytest.raises(UnknownProjectError, match="unknown project"):
            _tree().find("atlantis")


class TestSetQuotaRules:
    def test_rule_a_quota_below_usage(self):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(instances=10))
        tree.charge("garr", QuotaSet(instances=6))
        with pytest.raises(QuotaBelowUsageError, match="instances"):
            tree.set_quota("garr", QuotaSet(instances=5))

    def test_rule_b_siblings_must_fit_parent(self):
        tree = _tree()
        marketing = tree.create_project("marketing", "garr")
        tree.set_quota("garr", QuotaSet(instances=100))
        tree.set_quota(marketing, QuotaSet(instances=100))
        national = tree.create_project("national", marketing)
        international = tree.create_project("international", marketing)
        tree.set_quota(national, QuotaSet(instances=60))
        tree.set_quota(international, QuotaSet(instances=40))
        # 60 + 40 fills the parent exactly; one more does not fit.
        with pytest.raises(SiblingSumExceedsParentError, match="instances"):
            tree.set_quota(international, QuotaSet(instances=50))
        # The failed attempt left the previous quota in place.
        assert tree.nodes[international].quota.instances == 40

    def test_rule_b_skips_domain_roots(self):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(instances=1))
        tree.set_quota("garr", QuotaSet(instances=10_000))  # unbounded above

    def test_rule_c_children_must_fit_new_quota(self):
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        child = tree.create_project("dev", cloud)
        tree.set_quota("garr", QuotaSet(instances=100))
        tree.set_quota(cloud, QuotaSet(instances=50))
        tree.set_quota(child, QuotaSet(instances=30))
        with pytest.raises(ChildSumExceedsQuotaError, match="instances"):
            tree.set_quota(cloud, QuotaSet(instances=20))

    def test_unset_quota_denies_by_default(self):
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        decision = tree.check_admission(cloud, QuotaSet(instances=1))
        assert not decision.allowed
        assert "instances" in decision.reason


class TestChargeRelease:
    def test_charge_within_quota(self):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        tree.charge("garr", QuotaSet(vcpus=2, ram=2048, disk=20, instances=2))
        assert tree.nodes["garr"].usage == QuotaSet(vcpus=2, ram=2048, disk=20, instances=2)

    def test_charge_beyond_quota_changes_nothing(self):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(instances=1))
        tree.charge("garr", QuotaSet(instances=1))
        with pytest.raises(QuotaExceededError, match="instances"):
            tree.charge("garr", QuotaSet(instances=1))
        assert tree.nodes["garr"].usage.instances == 1

    def test_admission_is_a_local_check(self):
        # Rule (b) guarantees nesting, so a child's own quota is the whole
        # story: the parent being full must not block a child with room.
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(instances=10))
        tree.set_quota(cloud, QuotaSet(instances=10))
        tree.charge("garr", QuotaSet(instances=10))  # parent's own usage full
        assert tree.check_admission(cloud, QuotaSet(instances=5)).allowed
        tree.charge(cloud, QuotaSet(instances=5))

    def test_release(self):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(instances=5))
        tree.charge("garr", QuotaSet(instances=3))
        tree.release("garr", QuotaSet(instances=2))
        assert tree.nodes["garr"].usage.instances == 1

    def test_release_beyond_usage(self):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(instances=5))
        tree.charge("garr", QuotaSet(instances=1))
        with pytest.raises(ReleaseExceedsUsageError, match="instances"):
            tree.release("garr", QuotaSet(instances=2))
        assert tree.nodes["garr"].usage.instances == 1

    @given(
        amounts=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=20)),
            max_size=30,
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_usage_stays_within_bounds(self, amounts):
        tree = _tree()
        tree.set_quota("garr", QuotaSet(instances=50))
        for is_charge, n in amounts:
            try:
                if is_charge:
                    tree.charge("garr", QuotaSet(instances=n))
                else:
                    tree.release("garr", QuotaSet(instances=n))
            except QuotaError:
                pass
            usage = tree.nodes["garr"].usage.instances
            assert 0 <= usage <= 50


class TestRoles:
    def test_roles_inherit_downward(self):
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        dev = tree.create_project("dev", cloud)
        tree.assign_role("garr", "alice", "admin")
        tree.assign_role(dev, "alice", "operator")
        assert tree.effective_roles(dev, "alice") == {"admin", "operator"}
        assert tree.effective_roles(cloud, "alice") == {"admin"}

    def test_roles_do_not_flow_upward_or_sideways(self):
        tree = _tree()
        cloud = tree.create_project("cloud", "garr")
        other = tree.create_project("hpc", "garr")
        tree.assign_role(cloud, "bob", "admin")
        assert tree.effective_roles("garr", "bob") == set()
        assert tree.effective_roles(other, "bob") == set()

    def test_no_roles_is_empty(self):
        tree = _tree()
        assert tree.effective_roles("garr", "nobody") == set()


class TestSerialization:
    def test_round_trip(self):
        tree = _tree()
        tree.add_domain("unipd")
        cloud = tree.create_project("cloud", "garr")
        dev = tree.create_project("dev", cloud)
        tree.set_quota("garr", QuotaSet(vcpus=100, ram=1 << 20, disk=1000, instances=100))
        tree.set_quota(cloud, QuotaSet(vcpus=50, ram=1 << 19, disk=500, instances=50))
        tree.set_quota(dev, QuotaSet(vcpus=10, ram=1 << 16, disk=50, instances=10))
        tree.charge(dev, QuotaSet(vcpus=2, ram=4096, disk=20, instances=2))
        tree.assign_role(cloud, "alice", "admin")

        restored = ProjectTree.load_yaml(tree.dump_yaml())
        assert restored.dump() == tree.dump()
        assert restored.domains == ["garr", "unipd"]
        assert restored.nodes[dev].usage == tree.nodes[dev].usage
        assert restored.nodes[cloud].children == [dev]
        assert restored.effective_roles(dev, "alice") == {"admin"}
        # The restored tree keeps enforcing the rules.
        with pytest.raises(SiblingSumExceedsParentError):
            restored.set_quota(cloud, QuotaSet(vcpus=200, ram=1 << 19, disk=500, instances=50))

    def test_load_rejects_orphan(self):
        with pytest.raises(QuotaError, match="unknown parent"):
            ProjectTree.load(
                {"domains": [], "nodes": [
                    {"id": "x/y", "name": "y", "domain": "x", "parent": "x"}
                ]}
            )

    def test_empty_documents(self):
        assert ProjectTree.load_yaml("").nodes == {}
        assert ProjectTree.load({}).domains == []

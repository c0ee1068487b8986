"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test exercises a complete guarantee end to end and finishes by
printing a single ``[Cnn] name: PASS`` line (run with ``-s`` or read the
captured output), so the whole contract can be audited at a glance.
Budgets and tolerances are asserted, not just measured: fixture runs must
stay under a second, the interleaving sweep under a minute, and every
hash comparison is exact equality.
"""

from __future__ import annotations

import random
import time

import pytest

from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE, builtin_store
from fedweave.bundle import Constraints, parse_bundle
from fedweave.engine import (
    Model,
    add_unit,
    checkpoint,
    deploy_bundle,
    load_checkpoint,
    run_to_convergence,
    state_hash,
    step,
)
from fedweave.federation import Federation, RegionNotProductionError
from fedweave.plan import compile_plan, execute_plan
from fedweave.provider import Inventory
from fedweave.quota import ProjectTree, QuotaError, QuotaSet

from oracles import QuotaMirror, best_fit_oracle, explore_interleavings, machines_doc

FIXTURES = (MOODLE_BUNDLE, SCALED_BUNDLE)


def _converged_model(store, make_inventory, bundle_text, **model_kw):
    model = Model(store, make_inventory(8), **model_kw)
    deploy_bundle(model, parse_bundle(bundle_text))
    result = run_to_convergence(model)
    assert result.converged
    return model


class TestAcceptance:
    def test_c01_moodle_fixture_fidelity(self, store, make_inventory):
        model = Model(store, make_inventory())
        started = time.perf_counter()
        result = deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        outcome = run_to_convergence(model, budget=10_000)
        elapsed = time.perf_counter() - started

        assert outcome.converged
        host = result.machine_map["0"]
        record = model.inventory.machines[host]
        assert record.arch == "amd64"
        assert record.cores >= 1
        assert record.mem >= 2048
        assert record.disk >= 20480
        assert model.units["moodle/0"].machine == host
        assert model.units["postgresql/0"].machine == f"{host}/lxd/0"
        assert list(model.relations) == ["postgresql:db moodle:database"]
        assert model.units["moodle/0"].status == "active"
        assert model.units["postgresql/0"].status == "active"
        assert elapsed < 1.0
        print(f"[C01] moodle fixture fidelity: PASS ({elapsed:.3f}s)")

    def test_c02_scaling_fixture(self, store, make_inventory):
        model = Model(store, make_inventory(8))
        model.trace = []
        started = time.perf_counter()
        deploy_bundle(model, parse_bundle(SCALED_BUNDLE))
        run_to_convergence(model)
        add_unit(model, "moodle", count=2)
        outcome = run_to_convergence(model)
        elapsed = time.perf_counter() - started

        assert outcome.converged
        moodle_units = model.unit_ids_of("moodle")
        assert moodle_units == ["moodle/0", "moodle/1", "moodle/2"]
        joined = {
            (t["event"][1], t["target"])
            for t in model.trace
            if t["event"][0] == "relation-joined"
        }
        for unit_id in moodle_units:
            assert ("database", unit_id) in joined
            assert ("website", unit_id) in joined
        assert model.applications["haproxy"].exposed
        assert all(u.status == "active" for u in model.units.values())
        assert elapsed < 1.0
        print(f"[C02] scaling fixture: PASS ({elapsed:.3f}s)")

    def test_c03_order_invariance(self, store, make_inventory):
        started = time.perf_counter()
        for bundle_text in FIXTURES:
            hashes = set()
            for seed in range(100):
                model = Model(store, make_inventory(8))
                deploy_bundle(model, parse_bundle(bundle_text))
                assert run_to_convergence(model, rng_seed=seed).converged
                hashes.add(state_hash(model))
            assert len(hashes) == 1

        paths = 0
        for bundle_text in FIXTURES:
            model = Model(store, make_inventory(8))
            deploy_bundle(model, parse_bundle(bundle_text))
            reference = Model(store, make_inventory(8))
            deploy_bundle(reference, parse_bundle(bundle_text))
            run_to_convergence(reference)
            final_hashes, _, n_paths = explore_interleavings(model, branch_limit=8)
            assert final_hashes == {state_hash(reference)}
            paths += n_paths
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(
            f"[C03] order-invariance: PASS "
            f"(100 seeds/fixture, {paths} interleavings, {elapsed:.1f}s)"
        )

    def test_c04_idempotence(self, store, make_inventory):
        for bundle_text in FIXTURES:
            model = Model(store, make_inventory(8))
            model.shadow_check = True
            deploy_bundle(model, parse_bundle(bundle_text))
            assert run_to_convergence(model).converged
            assert model.shadow_deltas == 0
        print("[C04] idempotent re-application: PASS (0 deltas)")

    def test_c05_resumability(self, store, make_inventory):
        points = 0
        for bundle_text in FIXTURES:
            reference = _converged_model(store, make_inventory, bundle_text)
            target = state_hash(reference)
            total = len(reference.trace) if reference.trace else None
            if total is None:
                probe = Model(store, make_inventory(8))
                deploy_bundle(probe, parse_bundle(bundle_text))
                total = run_to_convergence(probe).events_processed

            for k in range(1, total + 1):
                model = Model(store, make_inventory(8))
                deploy_bundle(model, parse_bundle(bundle_text))
                for _ in range(k):
                    step(model)
                resumed = load_checkpoint(checkpoint(model), store)
                run_to_convergence(resumed)
                assert state_hash(resumed) == target, f"diverged at step {k}"
                points += 1
        print(f"[C05] checkpoint resumability: PASS ({points} interruption points)")

    def test_c06_plan_engine_equivalence(self, store, make_inventory):
        corpus = list(FIXTURES) + list(VARIANT_BUNDLES)
        assert len(corpus) >= 10
        for bundle_text in corpus:
            reactive = _converged_model(store, make_inventory, bundle_text)
            plan = compile_plan(parse_bundle(bundle_text), store)
            replayed = execute_plan(plan, make_inventory(8), store)
            assert state_hash(replayed) == state_hash(reactive)
        print(f"[C06] plan/engine equivalence: PASS ({len(corpus)} bundles)")

    def test_c07_placement_oracle(self):
        rng = random.Random(0xACCE97)
        archs = ["amd64", "arm64"]
        tag_pool = ["ssd", "gpu", "fast-net"]
        cases = 1_000
        for _ in range(cases):
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
            az = rng.choice([None, "az1", "az2"])

            expected = best_fit_oracle(machines_doc(inv), want, region=region, az=az)
            chosen = inv.select_machine(
                Constraints(
                    arch=want.get("arch"),
                    cpu_cores=want.get("cpu-cores"),
                    mem=want.get("mem"),
                    root_disk=want.get("root-disk"),
                    tags=frozenset(want.get("tags") or ()),
                ),
                region=region,
                az=az,
            )
            assert (chosen.id if chosen else None) == expected
        print(f"[C07] placement matches brute-force oracle: PASS ({cases} cases)")

    def test_c08_quota_properties(self):
        rng = random.Random(0x0A07A5)
        sequences = 10_000
        for _ in range(sequences):
            tree = ProjectTree()
            mirror = QuotaMirror()
            nodes = ["garr"]
            tree.add_domain("garr")
            mirror.add_node("garr", None)
            frontier = ["garr"]
            for _depth in range(3):  # root + 3 levels = depth <= 4
                next_frontier = []
                for parent in frontier:
                    for _ in range(rng.randint(0, 4) if rng.random() < 0.6 else 0):
                        name = f"p{len(nodes)}"
                        node_id = tree.create_project(name, parent)
                        mirror.add_node(node_id, parent)
                        nodes.append(node_id)
                        next_frontier.append(node_id)
                frontier = next_frontier
                if len(nodes) > 16:
                    break

            for _ in range(6):
                node = rng.choice(nodes)
                amounts = {
                    comp: rng.randint(0, 12)
                    for comp in QuotaMirror.COMPONENTS
                    if rng.random() < 0.7
                }
                op = rng.choice(("set", "charge", "release"))
                legal = getattr(mirror, f"legal_{'set_quota' if op == 'set' else op}")(
                    node, amounts
                )
                try:
                    if op == "set":
                        tree.set_quota(node, QuotaSet(**amounts))
                    elif op == "charge":
                        tree.charge(node, QuotaSet(**amounts))
                    else:
                        tree.release(node, QuotaSet(**amounts))
                    accepted = True
                except QuotaError:
                    accepted = False
                assert accepted == legal, (op, node, amounts)
                if accepted:
                    getattr(mirror, f"apply_{'set_quota' if op == 'set' else op}")(
                        node, amounts
                    )
            mirror.check_invariants()
            for node in nodes:
                record = tree.nodes[node]
                assert record.quota.as_dict() == mirror.quotas[node]
                assert record.usage.as_dict() == mirror.usage[node]

        # the worked sibling-ceiling example: 100 -> 60/40 fits, 60/50 does not
        tree = ProjectTree()
        tree.add_domain("garr")
        marketing = tree.create_project("marketing", "garr")
        tree.set_quota("garr", QuotaSet(vcpus=100))
        tree.set_quota(marketing, QuotaSet(vcpus=100))
        national = tree.create_project("national", marketing)
        international = tree.create_project("international", marketing)
        tree.set_quota(national, QuotaSet(vcpus=60))
        tree.set_quota(international, QuotaSet(vcpus=40))
        with pytest.raises(QuotaError):
            tree.set_quota(international, QuotaSet(vcpus=50))
        assert tree.nodes[international].quota.vcpus == 40
        print(f"[C08] quota invariants: PASS ({sequences} mutation sequences)")

    def test_c09_region_lifecycle(self):
        endpoints = {
            "compute": "https://pa.cloud.garr.it:8774/v2.1",
            "volume": "https://pa.cloud.garr.it:8776/v3",
            "image": "https://pa.cloud.garr.it:9292",
        }
        federation = Federation()
        federation.register_region("garr-pa", endpoints)

        # not yet placeable, and nothing published
        with pytest.raises(RegionNotProductionError):
            federation.production_region("garr-pa")
        assert federation.master_catalog == []

        federation.enlist_machine(
            "garr-pa", arch="amd64", cores=4, mem=8192, disk=102400, series="xenial"
        )
        report = federation.validate_region("garr-pa")
        assert report.promoted
        assert federation.regions["garr-pa"].status == "production"
        assert federation.production_region("garr-pa") is federation.regions["garr-pa"]
        assert [e.service_type for e in federation.master_catalog] == [
            "compute", "image", "volume",
        ]

        federation.sync_catalog("garr-pa")
        entries, generation = federation.replica_catalog("garr-pa")
        assert entries == federation.master_catalog
        assert generation == federation.master_generation == 1

        # a candidate missing a required service never leaves validating
        federation.register_region("garr-ct", {k: v for k, v in endpoints.items()
                                               if k != "volume"})
        federation.enlist_machine(
            "garr-ct", arch="amd64", cores=4, mem=8192, disk=102400, series="xenial"
        )
        report = federation.validate_region("garr-ct")
        assert not report.promoted
        assert federation.regions["garr-ct"].status == "validating"
        assert len(federation.master_catalog) == 3
        print("[C09] region lifecycle: PASS")

    def test_c10_identity_idempotence(self):
        federation = Federation()
        eppns = [f"user{i:02d}@example.org" for i in range(100)]
        seen_ids = {}
        calls = 0
        for round_no in range(10):
            for eppn in eppns:
                spelled = eppn.upper() if round_no % 2 else eppn
                user_id = federation.map_identity(spelled)
                calls += 1
                assert seen_ids.setdefault(eppn, user_id) == user_id
        assert calls == 1_000
        assert len(federation.users) == 100
        assert len(set(seen_ids.values())) == 100
        print("[C10] identity idempotence: PASS (1000 calls, 100 users)")


# ---------------------------------------------------------------------------
# Extra bundles for the plan/engine equivalence sweep.  All use the demo
# charms; together with the two fixtures they cover fresh machines, shared
# hosts, containers on declared and fresh machines, scaling, exposure,
# options, and every relation pair the store can form.

VARIANT_BUNDLES = (
    # two load balancers on fresh machines, nothing related
    """
series: xenial
applications:
  haproxy:
    charm: "cs:haproxy"
    num_units: 2
    expose: true
    options:
      default_timeout: 15
""",
    # database and application sharing one declared machine
    """
series: xenial
applications:
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 1
    to: [0]
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [0]
relations:
  - ["postgresql:db", "moodle:database"]
machines:
  "0":
    series: xenial
""",
    # a lone database in a container, host picked by constraints
    """
series: xenial
applications:
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [lxd:0]
    options:
      listen_port: 6000
machines:
  "0":
    series: xenial
    constraints: "mem=4096"
""",
    # two application units spread over two declared machines
    """
series: xenial
applications:
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 2
    to: [0, 1]
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [lxd:1]
relations:
  - ["postgresql:db", "moodle:database"]
machines:
  "0":
    series: xenial
  "1":
    series: xenial
    constraints: "cpu-cores=2"
""",
    # web tier only: proxy on a declared machine, app on a fresh one
    """
series: xenial
applications:
  haproxy:
    charm: "cs:haproxy"
    num_units: 1
    to: [0]
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 1
    options:
      site_name: Federated Campus
relations:
  - ["haproxy:reverseproxy", "moodle:website"]
machines:
  "0":
    series: xenial
""",
    # the full three tiers with options everywhere and a fresh proxy
    """
series: xenial
applications:
  haproxy:
    charm: "cs:haproxy"
    num_units: 1
    expose: true
    options:
      default_timeout: 60
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 1
    to: [0]
    options:
      site_name: Intranet
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [lxd:0]
    options:
      listen_port: 5433
      extra_pg_auth: host all all 10.0.0.0/8 md5
relations:
  - ["postgresql:db", "moodle:database"]
  - ["haproxy:reverseproxy", "moodle:website"]
machines:
  "0":
    series: xenial
    constraints: "arch=amd64 mem=2048"
""",
    # application in the container, database on the bare host
    """
series: xenial
applications:
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 1
    to: [lxd:0]
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [0]
relations:
  - ["postgresql:db", "moodle:database"]
machines:
  "0":
    series: xenial
    constraints: "cpu-cores=2"
""",
    # mixed placement list: one declared machine, one container slot
    """
series: xenial
applications:
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 2
    to: [1, lxd:0]
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [0]
  haproxy:
    charm: "cs:haproxy"
    num_units: 1
    expose: true
relations:
  - ["postgresql:db", "moodle:database"]
  - ["haproxy:reverseproxy", "moodle:website"]
machines:
  "0":
    series: xenial
  "1":
    series: xenial
""",
    # a related, configured and exposed proxy with no units yet
    """
series: xenial
applications:
  haproxy:
    charm: "cs:haproxy"
    num_units: 0
    expose: true
    options:
      default_timeout: 45
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: 1
    to: [0]
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
    to: [lxd:0]
relations:
  - ["postgresql:db", "moodle:database"]
  - ["haproxy:reverseproxy", "moodle:website"]
machines:
  "0":
    series: xenial
""",
)

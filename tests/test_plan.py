"""Plan compiler: phase ordering, round-trips, execution equivalence, DOT."""

from __future__ import annotations

import logging
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedweave.builtin import (
    HAPROXY_CHARM,
    MOODLE_BUNDLE,
    MOODLE_CHARM,
    POSTGRESQL_CHARM,
    SCALED_BUNDLE,
    builtin_store,
)
from fedweave.bundle import parse_bundle, render_bundle
from fedweave.charms import CharmStore, load_charm
from fedweave.engine import Model, deploy_bundle, run_to_convergence, state_hash
from fedweave.plan import (
    AcquireMachine,
    Configure,
    CreateContainer,
    ImperativePlan,
    InstallUnit,
    JoinRelation,
    PlanError,
    PlanExecutionError,
    StartUnit,
    _split_line,
    bundle_digest,
    compile_plan,
    execute_plan,
    export_dot,
    parse_plan,
    render_plan,
)
from fedweave.quota import ProjectTree, QuotaExceededError, QuotaSet

GOLDEN_MOODLE_STEPS = [
    "acquire-machine 0 series=xenial constraints='arch=amd64 cpu-cores=1 mem=2048 root-disk=20480'",
    "create-container 0 lxd 0/lxd/0",
    "install-unit moodle/0 cs:~csd-garr/moodle 0",
    "install-unit postgresql/0 cs:postgresql 0/lxd/0",
    "configure postgresql extra_pg_auth='host moodle juju_moodle 10.0.0.1/24 md5'",
    "join-relation postgresql:db moodle:database interface=pgsql",
    "start-unit moodle/0",
    "start-unit postgresql/0",
]

#: A bundle shaped like the benchmark's plan-audit corpus: constrained
#: hosts, machine, ``lxd:`` and fresh placements, options and expose.
AUDIT_STYLE_BUNDLE = """\
series: xenial
applications:
  moodle:
    charm: cs:~csd-garr/moodle
    num_units: 5
    to: ['1', lxd:0, '0', lxd:1]
    options: {site_name: Audit 7}
  postgresql:
    charm: cs:postgresql
    num_units: 2
    to: [lxd:1]
    options: {listen_port: 5432}
  haproxy:
    charm: cs:haproxy
    num_units: 1
    to: ['0']
    expose: true
    options: {default_timeout: 30}
machines:
  '0': {constraints: arch=amd64 cpu-cores=4 mem=8192 root-disk=40960}
  '1': {constraints: cpu-cores=2 mem=4096 root-disk=20480 tags=ssd}
relations:
  - [moodle:database, postgresql:db]
  - [haproxy:reverseproxy, moodle:website]
"""


class TestCompilation:
    def test_golden_moodle_plan(self, store, moodle_bundle):
        plan = compile_plan(moodle_bundle, store)
        assert [s.render() for s in plan.steps] == GOLDEN_MOODLE_STEPS

    def test_render_carries_digests(self, store, moodle_bundle):
        plan = compile_plan(moodle_bundle, store)
        text = render_plan(plan)
        lines = text.splitlines()
        assert lines[0] == f"# bundle-digest: {plan.bundle_digest}"
        assert lines[1] == f"# charm-digest: {plan.charm_digest}"
        assert lines[2:] == GOLDEN_MOODLE_STEPS
        assert len(plan.bundle_digest) == len(plan.charm_digest) == 64

    def test_phases_are_ordered(self, store, scaled_bundle):
        plan = compile_plan(scaled_bundle, store)
        phase_of = {
            AcquireMachine: 0, CreateContainer: 1, InstallUnit: 2,
            Configure: 3, JoinRelation: 4, StartUnit: 5,
        }
        phases = [phase_of[type(s)] for s in plan.steps]
        assert phases == sorted(phases)

    def test_declared_machines_precede_fresh(self, store, scaled_bundle):
        plan = compile_plan(scaled_bundle, store)
        acquires = [s for s in plan.steps if isinstance(s, AcquireMachine)]
        assert [a.machine for a in acquires] == ["0", "4"]

    def test_fresh_machines_are_named_after_their_unit(self, store):
        bundle = parse_bundle(
            "applications:\n  web:\n    charm: cs:haproxy\n    num_units: 2\n"
        )
        plan = compile_plan(bundle, store)
        acquires = [s for s in plan.steps if isinstance(s, AcquireMachine)]
        assert [a.machine for a in acquires] == ["fresh:web/0", "fresh:web/1"]

    def test_expose_is_a_configure_field(self, store, scaled_bundle):
        plan = compile_plan(scaled_bundle, store)
        configures = {s.application: s for s in plan.steps if isinstance(s, Configure)}
        assert configures["haproxy"].expose
        assert configures["haproxy"].options == ()
        assert not configures["postgresql"].expose

    def test_relations_are_provider_first(self, store, scaled_bundle):
        plan = compile_plan(scaled_bundle, store)
        joins = [s for s in plan.steps if isinstance(s, JoinRelation)]
        assert [(s.provider, s.requirer, s.interface) for s in joins] == [
            ("moodle:website", "haproxy:reverseproxy", "http"),
            ("postgresql:db", "moodle:database", "pgsql"),
        ]

    def test_container_slots_count_per_host_and_kind(self, store):
        bundle = parse_bundle(
            "applications:\n"
            "  postgresql:\n"
            "    charm: cs:postgresql\n"
            "    num_units: 3\n"
            "    to: [lxd:0, lxd:1, lxd:0]\n"
            "machines:\n"
            "  \"0\": {series: xenial}\n"
            "  \"1\": {series: xenial}\n"
        )
        plan = compile_plan(bundle, store)
        aliases = [s.alias for s in plan.steps if isinstance(s, CreateContainer)]
        assert aliases == ["0/lxd/0", "1/lxd/0", "0/lxd/1"]

    def test_invalid_bundle_is_refused(self, store):
        bundle = parse_bundle("applications:\n  app:\n    charm: cs:nope\n    num_units: 1\n")
        with pytest.raises(PlanError, match="does not validate"):
            compile_plan(bundle, store)

    def test_bundle_digest_tracks_the_source(self, store, moodle_bundle):
        plan_a = compile_plan(moodle_bundle, store)
        other = parse_bundle(MOODLE_BUNDLE.replace("num_units: 1", "num_units: 2", 1))
        plan_b = compile_plan(other, store)
        assert plan_a.bundle_digest != plan_b.bundle_digest
        assert plan_a.charm_digest == plan_b.charm_digest

    def test_equal_bundles_digest_equally(self, moodle_bundle):
        reordered = parse_bundle(
            "machines:\n  0: {constraints: 'mem=2048 root-disk=20480 cpu-cores=1 arch=amd64',"
            " series: xenial}\n"
            "relations: [[postgresql:db, moodle:database]]\n"
            "applications:\n"
            "  postgresql:\n    options: {extra_pg_auth: host moodle juju_moodle 10.0.0.1/24 md5}\n"
            "    to: lxd:0\n    charm: cs:postgresql\n"
            "  moodle: {charm: 'cs:~csd-garr/moodle', to: [0]}\n"
        )
        assert reordered == moodle_bundle
        assert bundle_digest(reordered) == bundle_digest(moodle_bundle)
        rendered = parse_bundle(render_bundle(moodle_bundle))
        assert bundle_digest(rendered) == bundle_digest(moodle_bundle)

    def test_an_edited_option_changes_the_digest(self, store, moodle_bundle):
        source = "extra_pg_auth: host moodle juju_moodle 10.0.0.1/24 md5"
        edits = [
            "extra_pg_auth: host moodle juju_moodle 10.0.0.2/24 md5",
            "extra_pg_auth: 1",
            "extra_pg_auth: '1'",
            "extra_pg_auth: 2020-01-01",       # a YAML date, which JSON has no type for
            "extra_pg_auth: '2020-01-01'",
            source + "\n      extra: x",
        ]
        bundles = [moodle_bundle] + [parse_bundle(MOODLE_BUNDLE.replace(source, edit))
                                     for edit in edits]
        digests = [bundle_digest(bundle) for bundle in bundles]
        assert len(set(digests)) == len(digests)
        assert compile_plan(bundles[4], store).bundle_digest == digests[4]

    @pytest.mark.parametrize(
        ("text", "digest"),
        [(MOODLE_BUNDLE, "1b00b157a94e290e727f0decfcc59fd72762720bfdf9824f022c18503dad5415"),
         (SCALED_BUNDLE, "02f42628c382bccf240b43d11aad9d22668a7254c26abf730d4df68a6681cfab"),
         (AUDIT_STYLE_BUNDLE, "377c7a39ef9d20cb86b9ced4d2600b84c5734616a260657ba81c3054f9e21aaf")],
        ids=["moodle", "scaled", "audit-style"],
    )
    def test_digests_are_pinned(self, text, digest):
        assert bundle_digest(parse_bundle(text)) == digest

    def test_option_names_of_mixed_types(self):
        # YAML reads the option name ``on`` as the boolean true.
        bundle = parse_bundle(
            "series: xenial\napplications:\n"
            "  haproxy: {charm: cs:haproxy, num_units: 1, options: {n: 3, on: yes}}\n"
        )
        assert bundle.applications["haproxy"].options == {"n": 3, True: True}
        rendered = parse_bundle(render_bundle(bundle))
        assert rendered == bundle
        assert bundle_digest(rendered) == bundle_digest(bundle)


class TestRoundTrip:
    def test_parse_render_identity(self, store, moodle_bundle, scaled_bundle):
        for bundle in (moodle_bundle, scaled_bundle):
            plan = compile_plan(bundle, store)
            assert parse_plan(render_plan(plan)) == plan

    def test_parse_ignores_blanks_and_comments(self):
        plan = parse_plan("\n# a comment\n\nstart-unit web/0\n")
        assert plan.steps == (StartUnit(unit="web/0"),)
        assert plan.bundle_digest == ""

    @pytest.mark.parametrize(
        "line,match",
        [
            ("acquire-machine", "malformed plan line"),          # missing fields
            ("acquire-machine 0 series", "malformed field"),     # field without '='
            ("teleport-unit web/0", "unknown plan step"),        # unknown verb
            ("join-relation a:x b:y", "malformed plan line"),    # missing interface
            ("acquire-machine 0 series=xenial constraints='mem=1", "malformed plan line"),
            ("start-unit web/0\\", "malformed plan line"),      # nothing to escape
        ],
    )
    def test_malformed_lines(self, line, match):
        with pytest.raises(PlanError, match=match):
            parse_plan(line + "\n")

    @given(st.lists(st.sampled_from([
        "start-unit", "configure", "web/0", "a", "=", "mem=1", "#", "é", "'", '"', "\\",
        " ", "  ", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
    ]), max_size=16).map("".join))
    @settings(deadline=None, max_examples=500)
    def test_split_line_matches_shlex(self, line):
        try:
            expected = shlex.split(line)
        except ValueError:
            with pytest.raises(ValueError):
                _split_line(line)
        else:
            assert _split_line(line) == expected


class TestExecution:
    def test_moodle_plan_matches_reactive_path(self, store, make_inventory, moodle_bundle):
        reference = Model(store, make_inventory())
        deploy_bundle(reference, parse_bundle(MOODLE_BUNDLE))
        run_to_convergence(reference)

        plan = compile_plan(moodle_bundle, store)
        model = execute_plan(plan, make_inventory(), store)
        assert state_hash(model) == state_hash(reference)

    def test_scaled_plan_matches_reactive_path(self, store, make_inventory, scaled_bundle):
        reference = Model(store, make_inventory())
        deploy_bundle(reference, parse_bundle(SCALED_BUNDLE))
        run_to_convergence(reference)

        plan = compile_plan(scaled_bundle, store)
        model = execute_plan(plan, make_inventory(), store)
        assert state_hash(model) == state_hash(reference)
        assert model.applications["haproxy"].exposed

    def test_execution_survives_a_text_round_trip(self, store, make_inventory, scaled_bundle):
        plan = parse_plan(render_plan(compile_plan(scaled_bundle, store)))
        direct = execute_plan(compile_plan(scaled_bundle, store), make_inventory(), store)
        replayed = execute_plan(plan, make_inventory(), store)
        assert state_hash(replayed) == state_hash(direct)

    def test_failing_step_is_named(self, store, moodle_bundle, make_inventory):
        plan = compile_plan(moodle_bundle, store)
        empty = make_inventory(count=0)
        with pytest.raises(PlanExecutionError, match=r"step 0 \(acquire-machine 0") as err:
            execute_plan(plan, empty, store)
        assert err.value.index == 0
        assert isinstance(err.value.step, AcquireMachine)

    def test_stale_charm_digest_logs_divergence(self, store, moodle_bundle, make_inventory, caplog):
        plan = compile_plan(moodle_bundle, store)
        drifted = CharmStore()
        for text in (MOODLE_CHARM, HAPROXY_CHARM):
            spec, owner = load_charm(text)
            drifted.register_charm(spec, owner=owner)
        pg_spec, pg_owner = load_charm(POSTGRESQL_CHARM.replace("default: 5432", "default: 6543"))
        drifted.register_charm(pg_spec, owner=pg_owner)

        with caplog.at_level(logging.WARNING, logger="fedweave.plan"):
            model = execute_plan(plan, make_inventory(), store=drifted)
        assert any("executing stale steps" in r.message for r in caplog.records)
        # The stale plan runs to completion against the drifted store.
        assert model.units["postgresql/0"].status == "active"
        assert model.relations["postgresql:db moodle:database"].data["postgresql/0"]["port"] == "6543"

    def test_matching_digest_is_silent(self, store, moodle_bundle, make_inventory, caplog):
        plan = compile_plan(moodle_bundle, store)
        with caplog.at_level(logging.WARNING, logger="fedweave.plan"):
            execute_plan(plan, make_inventory(), store)
        assert not caplog.records

    def test_plan_charges_quota_up_front(self, store, moodle_bundle, make_inventory):
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        tree.set_quota(project, QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        plan = compile_plan(moodle_bundle, store)
        model = execute_plan(plan, make_inventory(), store, project=project, quota_tree=tree)
        usage = tree.find(project).usage
        assert usage == QuotaSet(vcpus=1, ram=2048, disk=20, instances=2)
        assert state_hash(model)  # converged fine

    def test_plan_respects_quota(self, store, moodle_bundle, make_inventory):
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(instances=1))
        tree.set_quota(project, QuotaSet(instances=1))
        plan = compile_plan(moodle_bundle, store)
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(QuotaExceededError):
            execute_plan(plan, inventory, store, project=project, quota_tree=tree)
        assert tree.find(project).usage == QuotaSet()
        assert inventory.dump() == before

    def test_failed_step_releases_what_earlier_steps_held(self, store, make_inventory):
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        tree.set_quota(project, QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        # A second moodle unit needs a fresh machine the one-machine pool lacks.
        bundle = parse_bundle(MOODLE_BUNDLE.replace("num_units: 1\n    to:\n      - 0",
                                                    "num_units: 2\n    to:\n      - 0"))
        plan = compile_plan(bundle, store)
        inventory = make_inventory(count=1)
        before = inventory.dump()
        with pytest.raises(PlanExecutionError, match=r"step 1 \(acquire-machine fresh:moodle/1"):
            execute_plan(plan, inventory, store, project=project, quota_tree=tree)
        assert tree.find(project).usage == QuotaSet()
        assert inventory.dump() == before

    @pytest.mark.parametrize(
        ("bad_step", "message"),
        [
            ("install-unit haproxy/0 cs:haproxy 7", r"step 1 \(install-unit haproxy/0 cs:haproxy 7\): "
             r"unknown machine '7'"),
            ("create-container 7 lxd 7/lxd/0", r"step 1 \(create-container 7 lxd 7/lxd/0\): "
             r"unknown machine '7'"),
            ("configure nosuch expose=true", r"step 1 \(configure nosuch expose=true\): "
             r"unknown application 'nosuch'"),
            ("install-unit haproxy/5 cs:haproxy 0",
             r"step 1 \(install-unit haproxy/5 cs:haproxy 0\): unit 'haproxy/5' is out of order: "
             r"the next unit of 'haproxy' is 'haproxy/0'"),
            ("start-unit nosuch/0", r"step 1 \(start-unit nosuch/0\): unknown unit 'nosuch/0'"),
        ],
        ids=["install-unit", "create-container", "configure", "install-unit-name", "start-unit"],
    )
    def test_unknown_name_fails_its_step_and_rolls_back(self, store, make_inventory,
                                                       bad_step, message):
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        tree.set_quota(project, QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        plan = parse_plan(f"acquire-machine 0 series=xenial constraints='cpu-cores=1'\n{bad_step}\n")
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(PlanExecutionError, match=message) as err:
            execute_plan(plan, inventory, store, project=project, quota_tree=tree)
        assert err.value.index == 1
        assert inventory.dump() == before
        assert tree.find(project).usage == QuotaSet()


class TestDotExport:
    def test_empty_model(self, store, make_inventory):
        model = Model(store, make_inventory())
        assert export_dot(model) == "digraph deployment {\n}\n"

    def test_model_topology(self, deploy_fixture):
        model, result = deploy_fixture(MOODLE_BUNDLE)
        dot = export_dot(model)
        host = result.machine_map["0"]
        assert '"app:moodle" [label="moodle", shape=ellipse];' in dot
        assert f'subgraph "cluster_{host}"' in dot
        assert f'subgraph "cluster_{host}/lxd/0"' in dot
        assert '"unit:postgresql/0" [label="postgresql/0", shape=box];' in dot
        assert '"app:postgresql" -> "app:moodle" [label="pgsql"];' in dot

    def test_plan_topology_without_execution(self, store, scaled_bundle):
        dot = export_dot(compile_plan(scaled_bundle, store))
        assert '"app:moodle" -> "app:haproxy" [label="http"];' in dot
        assert '"app:postgresql" -> "app:moodle" [label="pgsql"];' in dot
        assert 'label="machine fresh:haproxy/0"' not in dot  # haproxy sits on machine 4
        assert 'label="machine 4"' in dot
        assert '"unit:haproxy/0" [label="haproxy/0", shape=box];' in dot

    def test_model_and_plan_agree_on_edges(self, store, make_inventory, scaled_bundle):
        plan_dot = export_dot(compile_plan(scaled_bundle, store))
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(SCALED_BUNDLE))
        run_to_convergence(model)
        model_dot = export_dot(model)
        plan_edges = {l for l in plan_dot.splitlines() if "->" in l}
        model_edges = {l for l in model_dot.splitlines() if "->" in l}
        assert plan_edges == model_edges

"""Plan compiler: phase ordering, round-trips, execution equivalence, DOT."""

from __future__ import annotations

import hashlib
import logging
import shlex

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedweave import engine
from fedweave import plan as plan_module
from fedweave.builtin import (
    HAPROXY_CHARM,
    MOODLE_BUNDLE,
    MOODLE_CHARM,
    POSTGRESQL_CHARM,
    SCALED_BUNDLE,
    builtin_store,
)
from fedweave.bundle import Constraints, parse_bundle, render_bundle, validate_bundle
from fedweave.charms import CharmStore, load_charm
from fedweave.engine import DeploymentError, Model, deploy_bundle, run_to_convergence, state_hash
from fedweave.plan import (
    AcquireMachine,
    AddApplication,
    CreateContainer,
    ImperativePlan,
    InstallUnit,
    JoinRelation,
    PlanError,
    PlanExecutionError,
    _split_line,
    bundle_digest,
    compile_plan,
    execute_plan,
    export_dot,
    parse_plan,
)
from fedweave.provider import Inventory
from fedweave.quota import ProjectTree, QuotaExceededError, QuotaSet

from test_step import FLEET_BUNDLE

GOLDEN_MOODLE_STEPS = [
    "acquire-machine 0 series=xenial constraints='arch=amd64 cpu-cores=1 mem=2048 root-disk=20480'",
    "create-container 0 lxd 0/lxd/0",
    "add-application moodle cs:~csd-garr/moodle series=xenial",
    "add-application postgresql cs:postgresql series=xenial"
    " extra_pg_auth='host moodle juju_moodle 10.0.0.1/24 md5'",
    "install-unit moodle/0 0",
    "install-unit postgresql/0 0/lxd/0",
    "join-relation postgresql:db moodle:database interface=pgsql",
]

#: The same plan in the older step language, where the first install-unit
#: named the charm and created the application, configure sent
#: config-changed and start-unit enqueued a second start.  It is refused.
OLD_FORMAT_MOODLE_STEPS = [
    "acquire-machine 0 series=xenial constraints='arch=amd64 cpu-cores=1 mem=2048 root-disk=20480'",
    "create-container 0 lxd 0/lxd/0",
    "install-unit moodle/0 cs:~csd-garr/moodle 0",
    "install-unit postgresql/0 cs:postgresql 0/lxd/0",
    "configure postgresql extra_pg_auth='host moodle juju_moodle 10.0.0.1/24 md5'",
    "join-relation postgresql:db moodle:database interface=pgsql",
    "start-unit moodle/0",
    "start-unit postgresql/0",
]

#: Every line break ``str.splitlines`` splits on.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]

#: Steps after a line whose quote is left open, one with a stray quote.
STEPS_AFTER_OPEN_QUOTE = ("install-unit web/0 0\n"
                          "acquire-machine 1 series=xenial constraints='arch=amd64\n"
                          "install-unit web/1 1")

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
        text = plan.render()
        lines = text.splitlines()
        assert lines[0] == f"# bundle-digest: {plan.bundle_digest}"
        assert lines[1] == f"# charm-digest: {plan.charm_digest}"
        assert lines[2:] == GOLDEN_MOODLE_STEPS
        assert len(plan.bundle_digest) == len(plan.charm_digest) == 64

    @pytest.mark.parametrize(("text", "steps", "digest"), [
        (MOODLE_BUNDLE, 7, "09a4bd7bf15e21c97c372efffe17cadb4c39493dca11c3f6ab7908cc5e88432c"),
        (SCALED_BUNDLE, 11, "9b9382a860e0695499025dcde499530816d2e8ab461343ff24b3ddec09b1778c"),
        (FLEET_BUNDLE, 415, "b73a7e38020d79397fcef23e0466270bfbe4ed2e0e73557ed9f280463120d693"),
    ], ids=["moodle", "scaled", "fleet"])
    def test_plan_text_is_pinned(self, store, text, steps, digest):
        # The SHA-256 of each plan's text, taken when steps were frozen dataclasses.
        plan = compile_plan(parse_bundle(text), store)
        assert len(plan.steps) == steps
        assert hashlib.sha256(plan.render().encode("utf-8")).hexdigest() == digest
        assert parse_plan(plan.render()) == plan

    def test_steps_of_two_kinds_can_be_equal(self, store, scaled_bundle):
        # Steps are named tuples, equal by value alone: their kind is told
        # with isinstance, and the plan sorts its joins by their fields.
        assert CreateContainer("0", "lxd", "0/lxd/0") == JoinRelation("0", "lxd", "0/lxd/0")
        assert not isinstance(JoinRelation("0", "lxd", "0/lxd/0"), CreateContainer)
        plan = compile_plan(scaled_bundle, store)
        joins = [s for s in plan.steps if isinstance(s, JoinRelation)]
        assert [(s.provider, s.requirer) for s in joins] == sorted(
            (s.provider, s.requirer) for s in joins)

    def test_phases_are_ordered(self, store, scaled_bundle):
        plan = compile_plan(scaled_bundle, store)
        phase_of = {
            AcquireMachine: 0, CreateContainer: 1, AddApplication: 2, InstallUnit: 3,
            JoinRelation: 4,
        }
        phases = [phase_of[type(s)] for s in plan.steps]
        assert phases == sorted(phases)
        added = [s.application for s in plan.steps if isinstance(s, AddApplication)]
        assert added == sorted(scaled_bundle.applications)

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

    def test_expose_is_an_add_application_field(self, store, scaled_bundle):
        plan = compile_plan(scaled_bundle, store)
        added = {s.application: s for s in plan.steps if isinstance(s, AddApplication)}
        assert added["haproxy"].expose
        assert added["haproxy"].options == ()
        assert not added["postgresql"].expose
        assert "add-application haproxy cs:haproxy series=xenial expose=true" in (
            plan.render().splitlines())

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
            assert parse_plan(plan.render()) == plan

    def test_parse_ignores_blanks_and_comments(self):
        plan = parse_plan("\n# a comment\n\ninstall-unit web/0 0\n")
        assert plan.steps == (InstallUnit(unit="web/0", machine="0"),)
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
            # A quote left open before further steps is refused with its own line
            # alone.  Only add-application steps go on over lines, and only as
            # render writes them, so a later stray quote closing it mid-value
            # does not hide the steps between.
            (f"add-application web cs:haproxy series=xenial n='v\n{STEPS_AFTER_OPEN_QUOTE}",
             """malformed plan line "add-application web cs:haproxy series=xenial n='v"$"""),
            (f'add-application web cs:haproxy series=xenial n="v\n{STEPS_AFTER_OPEN_QUOTE}',
             """malformed plan line 'add-application web cs:haproxy series=xenial n="v'$"""),
            (f"acquire-machine 0 series=xenial constraints='mem=1\n{STEPS_AFTER_OPEN_QUOTE}",
             """malformed plan line "acquire-machine 0 series=xenial constraints='mem=1"$"""),
            # Lines of the older step language, and an install-unit short of a field,
            # are refused with the whole line.
            ("install-unit web/0 cs:haproxy 0", "malformed plan line 'install-unit web/0 cs:haproxy 0'"),
            ("install-unit web/0", "malformed plan line 'install-unit web/0'"),
            ("configure web expose=true",
             "unknown plan step 'configure' in line 'configure web expose=true'"),
            ("start-unit web/0", "unknown plan step 'start-unit' in line 'start-unit web/0'"),
        ],
    )
    def test_malformed_lines(self, line, match):
        with pytest.raises(PlanError, match=match):
            parse_plan(line + "\n")

    def test_the_older_step_language_is_refused(self):
        with pytest.raises(PlanError) as err:
            parse_plan("\n".join(OLD_FORMAT_MOODLE_STEPS) + "\n")
        assert str(err.value) == "malformed plan line 'install-unit moodle/0 cs:~csd-garr/moodle 0'"

    @given(st.lists(st.sampled_from([
        "start-unit", "configure", "web/0", "a", "=", "mem=1", "#", "é", "'", '"', "\\",
        " ", "  ", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
    ]), max_size=16).map("".join))
    # a backslash in double quotes escapes only a double quote or a backslash
    @example('x="a\\"b\\\\c\\d" \'e\\f\' g\\ h')
    @example('"open\\"')
    @settings(deadline=None, max_examples=500)
    def test_split_line_matches_shlex(self, line):
        try:
            expected = shlex.split(line)
        except ValueError:
            with pytest.raises(ValueError):
                _split_line(line)
        else:
            assert _split_line(line) == expected

    @pytest.mark.parametrize("text", [SCALED_BUNDLE, AUDIT_STYLE_BUNDLE],
                             ids=["scaled", "audit-style"])
    def test_quoted_lines_split_without_shlex(self, monkeypatch, store, text):
        plan = compile_plan(parse_bundle(text), store)
        rendered = plan.render()
        assert "='" in rendered

        def refuse(*_args, **_kwargs):
            raise AssertionError("shlex.split ran")

        monkeypatch.setattr(shlex, "split", refuse)
        assert parse_plan(rendered) == plan

    @given(st.lists(st.dictionaries(
        st.sampled_from(["extra_pg_auth", "site_name", "n"]),
        st.lists(st.sampled_from(["'", '"', "\\", " ", "\t", "#", "=", "a", "é", "\u3000",
                                  *LINE_BREAKS]) | st.characters(codec="utf-8"),
                 max_size=12).map("".join),
    ), min_size=1, max_size=3))
    @example([{"extra_pg_auth": "host all all 10.0.0.0/8 md5\nhost all all 192.168.0.0/16 md5"}])
    @example([{"n": "'\r\n'"}, {"n": "\\\n", "site_name": "\n# charm-digest: x\n"}])
    @settings(deadline=None, max_examples=300)
    def test_every_option_value_round_trips(self, options):
        """``render`` quotes an option value, and ``parse_plan`` reads it
        back, whatever it holds, line breaks of every kind among it."""
        steps = []
        for index, values in enumerate(options):
            app = f"app{index}"
            steps += [AcquireMachine(str(index), "xenial", Constraints(arch="amd64", mem=1024)),
                      AddApplication(app, "cs:postgresql", "xenial", tuple(sorted(values.items()))),
                      InstallUnit(f"{app}/0", str(index))]
        plan = ImperativePlan(tuple(steps), "b" * 64, "c" * 64)
        assert parse_plan(plan.render()) == plan


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

    def test_deploy_and_execution_apply_the_plan_steps(self, store, make_inventory, scaled_bundle,
                                                       monkeypatch):
        """Both paths apply the compiled steps through ``engine.apply_step``;
        deploy joins the relations in bundle order, the plan sorts them."""
        applied = []
        apply_step = engine.apply_step

        def spy(model, log, planned, machine_map):
            applied.append(planned)
            return apply_step(model, log, planned, machine_map)

        monkeypatch.setattr(engine, "apply_step", spy)
        monkeypatch.setattr(plan_module, "apply_step", spy)
        deploy_bundle(Model(store, make_inventory()), scaled_bundle)
        plan = compile_plan(scaled_bundle, store)
        assert applied[:-2] == list(plan.steps[:-2])
        assert [s.render() for s in applied[-2:]] == [
            "join-relation postgresql:db moodle:database interface=pgsql",
            "join-relation moodle:website haproxy:reverseproxy interface=http",
        ]
        assert applied[-2:] == list(reversed(plan.steps[-2:]))
        applied.clear()
        execute_plan(plan, make_inventory(), store)
        assert applied == list(plan.steps)

    def test_execution_survives_a_text_round_trip(self, store, make_inventory, scaled_bundle):
        plan = parse_plan(compile_plan(scaled_bundle, store).render())
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
            ("install-unit haproxy/0 7", r"step 2 \(install-unit haproxy/0 7\): "
             r"unknown machine '7'"),
            ("create-container 7 lxd 7/lxd/0", r"step 2 \(create-container 7 lxd 7/lxd/0\): "
             r"unknown machine '7'"),
            ("install-unit moodle/0 0", r"step 2 \(install-unit moodle/0 0\): "
             r"unknown application 'moodle': no earlier step adds it"),
            ("install-unit haproxy/5 0",
             r"step 2 \(install-unit haproxy/5 0\): unit 'haproxy/5' is out of order: "
             r"the next unit of 'haproxy' is 'haproxy/0'"),
        ],
        ids=["install-unit", "create-container", "application", "install-unit-name"],
    )
    def test_unknown_name_fails_its_step_and_rolls_back(self, store, make_inventory,
                                                       bad_step, message):
        tree = ProjectTree()
        tree.add_domain("garr")
        project = tree.create_project("cloud", "garr")
        tree.set_quota("garr", QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        tree.set_quota(project, QuotaSet(vcpus=8, ram=16384, disk=100, instances=10))
        plan = parse_plan("acquire-machine 0 series=xenial constraints='cpu-cores=1'\n"
                          f"add-application haproxy cs:haproxy series=xenial\n{bad_step}\n")
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(PlanExecutionError, match=message) as err:
            execute_plan(plan, inventory, store, project=project, quota_tree=tree)
        assert err.value.index == 2
        assert inventory.dump() == before
        assert tree.find(project).usage == QuotaSet()

    @pytest.mark.parametrize(
        ("lead", "ref", "message"),
        [(lead, ref, message)
         for ref, message in (
             ("cs:nosuch", "unknown charm reference 'cs:nosuch'"),
             ("nosuch", "malformed charm reference 'nosuch' (want cs:[~owner/]name)"))
         for lead in ("", "acquire-machine 0 series=xenial\n")],
        ids=["first", "after-acquire", "first-malformed", "after-acquire-malformed"],
    )
    def test_unknown_charm_fails_its_step(self, store, make_inventory, lead, ref, message):
        plan = parse_plan(f"{lead}add-application web {ref} series=xenial\n")
        index = len(plan.steps) - 1
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(PlanExecutionError) as err:
            execute_plan(plan, inventory, store)
        assert str(err.value) == (
            f"step {index} (add-application web {ref} series=xenial): {message}")
        assert err.value.index == index
        assert inventory.dump() == before

    def test_an_earlier_failing_step_is_named_before_an_unknown_charm(self, store, make_inventory):
        plan = parse_plan("acquire-machine 0 series=xenial\ninstall-unit web/0 0\n"
                          "add-application web cs:nosuch series=xenial\n")
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(PlanExecutionError, match="no earlier step adds it") as err:
            execute_plan(plan, inventory, store)
        assert err.value.index == 1
        assert inventory.dump() == before

    def test_a_null_string_option_is_the_empty_string(self, store, make_inventory):
        bundle = parse_bundle("series: xenial\napplications:\n"
                              "  moodle: {charm: 'cs:~csd-garr/moodle', options: {site_name: }}\n")
        rendered = compile_plan(bundle, store).render()
        assert "add-application moodle cs:~csd-garr/moodle series=xenial site_name=''" in (
            rendered.splitlines())
        replayed = execute_plan(parse_plan(rendered), make_inventory(), store)
        assert replayed.applications["moodle"].config["site_name"] == ""
        assert state_hash(replayed) == state_hash(_deployed(store, make_inventory(), bundle))


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


# ---------------------------------------------------------------------------
# Applications with no units, and generated bundles: the reactive deploy and
# the plan replay read one lowering, so they agree on every bundle.

ZERO_UNIT_BUNDLES = {
    "alone": """\
series: xenial
applications:
  postgresql: {charm: cs:postgresql, num_units: 0}
""",
    "beside-unrelated": """\
series: xenial
applications:
  moodle: {charm: "cs:~csd-garr/moodle", num_units: 1}
  postgresql: {charm: cs:postgresql, num_units: 0}
""",
    "related": """\
series: xenial
applications:
  moodle: {charm: "cs:~csd-garr/moodle", num_units: 1}
  postgresql: {charm: cs:postgresql, num_units: 0}
relations:
  - [postgresql:db, moodle:database]
""",
    "options-and-expose": """\
series: xenial
applications:
  haproxy:
    charm: cs:haproxy
    num_units: 0
    expose: true
    options: {default_timeout: 15}
  moodle: {charm: "cs:~csd-garr/moodle", num_units: 1, to: [0]}
relations:
  - [haproxy:reverseproxy, moodle:website]
machines:
  "0": {series: xenial}
""",
}


def _deployed(store, inventory, bundle, shadow_check=False, rng_seed=1):
    model = Model(store, inventory)
    model.shadow_check = shadow_check
    deploy_bundle(model, bundle)
    assert run_to_convergence(model, rng_seed=rng_seed).converged
    return model


class TestZeroUnitApplications:
    @pytest.mark.parametrize("text", ZERO_UNIT_BUNDLES.values(), ids=ZERO_UNIT_BUNDLES.keys())
    def test_deploy_and_replay_agree(self, store, make_inventory, text, caplog):
        bundle = parse_bundle(text)
        reactive = _deployed(store, make_inventory(), bundle)
        compiled = compile_plan(bundle, store)
        rendered = compiled.render()
        assert parse_plan(rendered) == compiled
        assert parse_plan(rendered).render() == rendered
        with caplog.at_level(logging.WARNING, logger="fedweave.plan"):
            replayed = execute_plan(parse_plan(rendered), make_inventory(), store)
        assert not caplog.records
        assert replayed.converged
        assert sorted(replayed.applications) == sorted(reactive.applications)
        assert state_hash(replayed) == state_hash(reactive)

    def test_add_application_creates_unitless_applications_and_their_partners(self, store):
        """Every application, with units or without, is added with its
        options and expose flag before any unit is installed, as
        ``deploy_bundle`` creates it."""
        plan = compile_plan(parse_bundle(ZERO_UNIT_BUNDLES["related"]), store)
        assert [s.render() for s in plan.steps] == [
            "acquire-machine fresh:moodle/0 series=xenial",
            "add-application moodle cs:~csd-garr/moodle series=xenial",
            "add-application postgresql cs:postgresql series=xenial",
            "install-unit moodle/0 fresh:moodle/0",
            "join-relation postgresql:db moodle:database interface=pgsql",
        ]
        plan = compile_plan(parse_bundle(ZERO_UNIT_BUNDLES["options-and-expose"]), store)
        added = [s for s in plan.steps if isinstance(s, AddApplication)]
        assert [s.render() for s in added] == [
            "add-application haproxy cs:haproxy series=xenial expose=true default_timeout=15",
            "add-application moodle cs:~csd-garr/moodle series=xenial",
        ]
        assert parse_plan(plan.render()).steps == plan.steps

    def test_unrelated_applications_are_added_with_their_options(self, store):
        text = ZERO_UNIT_BUNDLES["beside-unrelated"].replace(
            'num_units: 1}', 'num_units: 1, options: {site_name: Campus}}')
        plan = compile_plan(parse_bundle(text), store)
        assert [s.render() for s in plan.steps] == [
            "acquire-machine fresh:moodle/0 series=xenial",
            "add-application moodle cs:~csd-garr/moodle series=xenial site_name=Campus",
            "add-application postgresql cs:postgresql series=xenial",
            "install-unit moodle/0 fresh:moodle/0",
        ]

    def test_adding_an_existing_application_fails(self, store, make_inventory):
        plan = parse_plan(
            "add-application haproxy cs:haproxy series=xenial\n"
            "add-application haproxy cs:haproxy series=xenial\n"
        )
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(PlanExecutionError,
                           match=r"step 1 \(add-application haproxy cs:haproxy series=xenial\): "
                                 r"application 'haproxy' already exists") as err:
            execute_plan(plan, inventory, store)
        assert err.value.index == 1
        assert inventory.dump() == before

    def test_add_application_checks_its_options(self, store, make_inventory):
        plan = parse_plan("add-application haproxy cs:haproxy series=xenial colour=red\n")
        inventory = make_inventory()
        before = inventory.dump()
        with pytest.raises(PlanExecutionError, match=r"step 0 .*has no option 'colour'"):
            execute_plan(plan, inventory, store)
        assert inventory.dump() == before

    def test_installed_application_cannot_be_added(self, store, make_inventory):
        plan = parse_plan(
            "add-application haproxy cs:haproxy series=xenial\n"
            "acquire-machine 0 series=xenial\n"
            "install-unit haproxy/0 0\n"
            "add-application haproxy cs:haproxy series=xenial\n"
        )
        with pytest.raises(PlanExecutionError, match="application 'haproxy' already exists"):
            execute_plan(plan, make_inventory(), store)

    @pytest.mark.parametrize("text", ZERO_UNIT_BUNDLES.values(), ids=ZERO_UNIT_BUNDLES.keys())
    def test_dot_lists_the_same_applications(self, store, make_inventory, text):
        bundle = parse_bundle(text)
        model = _deployed(store, make_inventory(), bundle)

        def app_nodes(dot):
            return [line for line in dot.splitlines() if line.startswith('  "app:') and "->" not in line]

        assert app_nodes(export_dot(compile_plan(bundle, store))) == app_nodes(export_dot(model))
        assert len(app_nodes(export_dot(model))) == len(bundle.applications)


#: A haproxy copy on two series whose config-changed handler sets a flag, so
#: a replay that sent config-changed would reach another state hash.
PROXY2_CHARM = HAPROXY_CHARM.replace("name: haproxy", "name: proxy2").replace(
    "series: [xenial]", "series: [xenial, bionic]") + """\
  - on: config-changed
    do:
      - set-state: configured
"""


def _store_with_proxy2():
    store = builtin_store()
    spec, owner = load_charm(PROXY2_CHARM)
    store.register_charm(spec, owner=owner)
    return store


def _ample_pool():
    """Sixteen idle machines of each series the charms speak."""
    inventory = Inventory()
    inventory.add_zone("garr-01", "az1")
    for series in ("xenial", "bionic"):
        for _ in range(16):
            inventory.enlist(region="garr-01", az="az1", arch="amd64", cores=8, mem=16384,
                             disk=204800, series=series)
    return inventory


def test_a_config_changed_flag_is_not_set_by_the_replay():
    """``deploy_bundle`` sends no config-changed, and neither does the plan."""
    store = _store_with_proxy2()
    bundle = parse_bundle("series: xenial\napplications:\n"
                          "  proxy2: {charm: cs:proxy2, num_units: 1,"
                          " options: {default_timeout: 5}}\n")
    reactive = _deployed(store, _ample_pool(), bundle)
    replayed = execute_plan(parse_plan(compile_plan(bundle, store).render()), _ample_pool(), store)
    assert reactive.units["proxy2/0"].states == {"installed", "started"}
    assert replayed.units["proxy2/0"].states == {"installed", "started"}
    assert replayed.applications["proxy2"].config["default_timeout"] == 5
    assert replayed.generation == reactive.generation
    assert state_hash(replayed) == state_hash(reactive)


_DEMO_CHARMS = {"moodle": "cs:~csd-garr/moodle", "postgresql": "cs:postgresql",
                "haproxy": "cs:haproxy", "proxy2": "cs:proxy2"}
#: Pairs over the demo charms; the third speaks two interfaces, so it never validates.
_PAIRS = (("postgresql:db", "moodle:database"), ("haproxy:reverseproxy", "moodle:website"),
          ("haproxy:reverseproxy", "postgresql:db"), ("proxy2:reverseproxy", "moodle:website"))
_OPTIONS = {
    "moodle": st.fixed_dictionaries({"site_name": st.sampled_from(["Campus", "x y", None])}),
    "postgresql": st.fixed_dictionaries({"listen_port": st.sampled_from([5433, "fast"])}),
    "haproxy": st.fixed_dictionaries({"default_timeout": st.integers(1, 90)}),
    "proxy2": st.fixed_dictionaries({"default_timeout": st.integers(1, 90)}),
}


@st.composite
def demo_bundles(draw):
    """Bundle text over the demo charms and ``proxy2``: 0-3 units an application on
    declared machines, ``lxd:`` containers and fresh machines, with
    relations, options and ``expose``.  Machines and the bundle default
    may name a series the charms do not support."""
    doc = {}
    default_series = draw(st.sampled_from([None, "xenial", "bionic"]))
    if default_series:
        doc["series"] = default_series
    machine_ids = [str(n) for n in range(draw(st.integers(0, 2)))]
    if machine_ids:
        doc["machines"] = {
            machine_id: {"series": draw(st.sampled_from(["xenial", "xenial", "bionic"])),
                         **draw(st.sampled_from([{}, {"constraints": "cpu-cores=1 mem=2048"}]))}
            for machine_id in machine_ids
        }
    names = draw(st.lists(st.sampled_from(sorted(_DEMO_CHARMS)), min_size=1, max_size=4,
                          unique=True))
    directives = st.sampled_from([None, *machine_ids, *(f"lxd:{m}" for m in machine_ids)])
    applications = {}
    for name in names:
        num_units = draw(st.integers(0, 3))
        body = {"charm": _DEMO_CHARMS[name], "num_units": num_units}
        placements = draw(st.lists(directives, max_size=num_units))
        if placements:
            body["to"] = placements
        if draw(st.booleans()):
            body["options"] = draw(_OPTIONS[name])
        if draw(st.booleans()):
            body["expose"] = True
        applications[name] = body
    doc["applications"] = applications
    relations = []
    for pair in _PAIRS:
        if {endpoint.partition(":")[0] for endpoint in pair} <= set(names) and draw(st.booleans()):
            relations.append(list(pair) if draw(st.booleans()) else list(reversed(pair)))
    if relations:
        doc["relations"] = relations
    return yaml.safe_dump(doc)


@settings(max_examples=60, deadline=None)
@given(demo_bundles())
def test_validate_deploy_and_replay_agree(text):
    """``validate_bundle`` has an error exactly when ``deploy_bundle`` on an
    ample pool raises, and a valid bundle gives one state hash through the
    reactive deploy and through its replayed plan text, after processing
    the same number of events.  The deploy runs with the shadow check on
    and finds every handler idempotent, and a deploy converged under
    another reactive seed reaches the same hash."""
    store = _store_with_proxy2()
    bundle = parse_bundle(text)
    invalid = any(d.severity == "error" for d in validate_bundle(bundle, store))
    try:
        reactive = _deployed(store, _ample_pool(), bundle, shadow_check=True)
    except DeploymentError:
        assert invalid
        with pytest.raises(PlanError, match="bundle does not validate"):
            compile_plan(bundle, store)
        return
    assert not invalid
    rendered = compile_plan(bundle, store).render()
    assert parse_plan(rendered).render() == rendered
    replayed = execute_plan(parse_plan(rendered), _ample_pool(), store)
    assert replayed.converged
    assert state_hash(replayed) == state_hash(reactive)
    assert replayed.generation == reactive.generation
    assert reactive.shadow_deltas == 0
    assert state_hash(_deployed(store, _ample_pool(), bundle, rng_seed=7)) == state_hash(reactive)

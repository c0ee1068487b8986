"""Charm store: definitions, refs, option coercion, guards, templates."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedweave.builtin import MOODLE_CHARM, POSTGRESQL_CHARM, builtin_store
from fedweave.charms import (
    CharmError,
    CharmNotFoundError,
    CharmSpec,
    CharmStore,
    EventKind,
    Fail,
    HookHandler,
    OpenPort,
    OptionSchema,
    OptionTypeError,
    SetRelationData,
    SetState,
    SetUnitStatus,
    charm_ref,
    load_charm,
    parse_charm_ref,
    parse_event_kind,
    resolve_template,
    template_references,
)
from oracles import guard_satisfied, handler_matches, resolve_template_oracle


class TestEventKind:
    @pytest.mark.parametrize(
        "text,kind,name",
        [
            ("install", "install", ""),
            ("leader-elected", "leader-elected", ""),
            ("config-changed", "config-changed", ""),
            ("start", "start", ""),
            ("update-status", "update-status", ""),
            ("db-relation-joined", "relation-joined", "db"),
            ("database-relation-changed", "relation-changed", "database"),
            ("website-relation-departed", "relation-departed", "website"),
            ("data-storage-attached", "storage-attached", "data"),
            ("data-storage-detaching", "storage-detaching", "data"),
        ],
    )
    def test_parse(self, text, kind, name):
        assert parse_event_kind(text) == EventKind(kind, name)

    def test_render_round_trip(self):
        for text in ("install", "db-relation-joined", "logs-storage-attached"):
            assert parse_event_kind(text).render() == text

    def test_endpoint_with_dash(self):
        # Longest-suffix match: the endpoint keeps its own dashes.
        kind = parse_event_kind("shared-db-relation-changed")
        assert kind == EventKind.relation_changed("shared-db")

    @pytest.mark.parametrize("text", ["reboot", "-relation-joined", "relation-joined", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(CharmError):
            parse_event_kind(text)

    def test_parse_rejects_non_string(self):
        with pytest.raises(CharmError, match="must be a string"):
            parse_event_kind(True)

    def test_is_relation_event(self):
        assert EventKind.relation_joined("db").is_relation_event()
        assert not EventKind.install().is_relation_event()
        assert not EventKind("storage-attached", "data").is_relation_event()


class TestOptionSchema:
    def test_string_coercions(self):
        schema = OptionSchema(type="string")
        assert schema.coerce("x") == "x"
        assert schema.coerce(5) == "5"
        assert schema.coerce(True) == "true"
        assert schema.coerce(None) == ""

    def test_int_coercions(self):
        schema = OptionSchema(type="int")
        assert schema.coerce(5432) == 5432
        assert schema.coerce(" 80 ") == 80

    def test_int_rejects_bool(self):
        # bool is a subclass of int; the schema must not let it slip through.
        with pytest.raises(OptionTypeError, match="boolean"):
            OptionSchema(type="int").coerce(True)

    def test_int_rejects_garbage(self):
        with pytest.raises(OptionTypeError):
            OptionSchema(type="int").coerce("eighty")

    def test_bool_coercions(self):
        schema = OptionSchema(type="bool")
        assert schema.coerce(True) is True
        assert schema.coerce("yes") is True
        assert schema.coerce("Off") is False
        with pytest.raises(OptionTypeError):
            schema.coerce("maybe")
        with pytest.raises(OptionTypeError):
            schema.coerce(1)

    def test_float_coercions(self):
        schema = OptionSchema(type="float")
        assert schema.coerce(1) == 1.0
        assert schema.coerce("2.5") == 2.5
        with pytest.raises(OptionTypeError):
            schema.coerce(False)


class TestTemplates:
    def test_references(self):
        refs = template_references("{config:listen_port}/{remote:host}")
        assert refs == [("config", "listen_port"), ("remote", "host")]

    def test_no_references(self):
        assert template_references("10.0.0.1") == []

    def test_resolve_config(self):
        out = resolve_template("{config:listen_port}", {"listen_port": 5432}, None)
        assert out == "5432"

    def test_resolve_remote(self):
        out = resolve_template("{remote:host}:{remote:port}", {}, {"host": "h", "port": "5432"})
        assert out == "h:5432"

    def test_missing_remote_key_is_empty(self):
        # Stable under re-runs: whatever the remote has not published reads "".
        assert resolve_template("{remote:host}", {}, {}) == ""
        assert resolve_template("{remote:host}", {}, None) == ""

    def test_bool_config_renders_lowercase(self):
        assert resolve_template("{config:debug}", {"debug": True}, None) == "true"

    def test_untemplated_braces_pass_through(self):
        assert resolve_template("{not:a-template}", {}, None) == "{not:a-template}"

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.lists(st.one_of(
            st.text(max_size=6),
            st.sampled_from(["{", "}", ":", "{config:", "{remote:", "{config:}", "config:a}",
                             "{config:a", "{remote:host", "{Config:a}", "{config:a b}"]),
            st.builds("{{{}:{}}}".format, st.sampled_from(["config", "remote"]),
                      st.sampled_from(["a", "b", "host", "x.y-z_1", "missing"])),
        ), max_size=8).map("".join),
        config=st.dictionaries(
            st.sampled_from(["a", "b", "x.y-z_1"]),
            st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))),
        remote_data=st.one_of(st.none(), st.dictionaries(
            st.sampled_from(["a", "host", "x.y-z_1"]),
            st.one_of(st.text(max_size=4), st.integers()))),
    )
    @example(value="{config:a}{config:a}", config={"a": 1}, remote_data=None)
    @example(value="{remote:host}{remote:a}", config={}, remote_data={"host": "h"})
    @example(value="{{config:a}}", config={"a": False}, remote_data=None)
    @example(value="{config:a", config={"a": None}, remote_data={})
    def test_parse_once_resolver_agrees_with_the_regex_resolver(self, value, config, remote_data):
        want = resolve_template_oracle(value, config, remote_data)
        assert resolve_template(value, config, remote_data) == want
        # A second call reads the parse the first one made.
        assert resolve_template(value, config, remote_data) == want


class TestHandlers:
    def test_guard_subset(self):
        handler = HookHandler(
            on=EventKind.start(),
            actions=(SetUnitStatus("active"),),
            when_states=frozenset({"installed", "database.connected"}),
        )
        assert guard_satisfied(handler, {"installed", "database.connected", "extra"})
        assert not guard_satisfied(handler, {"installed"})
        assert guard_satisfied(HookHandler(on=EventKind.start(), actions=(Fail("x"),)), set())

    def test_matches(self):
        handler = HookHandler(on=EventKind.relation_joined("db"), actions=(SetState("f"),))
        assert handler_matches(handler, EventKind.relation_joined("db"))
        assert not handler_matches(handler, EventKind.relation_changed("db"))


class TestLoadCharm:
    def test_builtin_moodle_shape(self):
        spec, owner = load_charm(MOODLE_CHARM)
        assert owner == "csd-garr"
        assert spec.name == "moodle"
        assert spec.series == frozenset({"xenial"})
        assert spec.provides == {"website": "http"}
        assert spec.requires == {"database": "pgsql"}
        starts = [h for h in spec.handlers if h.on == EventKind.start()]
        assert starts[0].when_states == frozenset({"installed", "database.connected"})

    def test_builtin_postgresql_templates(self):
        spec, _ = load_charm(POSTGRESQL_CHARM)
        joined = next(h for h in spec.handlers if h.on == EventKind.relation_joined("db"))
        publishes = [a for a in joined.actions if isinstance(a, SetRelationData)]
        assert any(a.value == "{config:listen_port}" for a in publishes)

    def test_default_config(self):
        spec, _ = load_charm(POSTGRESQL_CHARM)
        config = spec.default_config()
        assert config["listen_port"] == 5432
        assert config["extra_pg_auth"] == ""

    def test_bare_on_key_is_yaml_bool(self):
        # PyYAML resolves an unquoted `on` to boolean true; the loader must
        # cope, since that is how everyone writes handler lists.
        spec, _ = load_charm(
            "name: app\nseries: [xenial]\nhandlers:\n"
            "  - on: install\n    do:\n      - set-state: installed\n"
        )
        assert spec.handlers[0].on == EventKind.install()

    def test_owner(self):
        spec, owner = load_charm("name: app\nowner: csd\nseries: [xenial]\n")
        assert owner == "csd"

    @pytest.mark.parametrize(
        "text,match",
        [
            ("- just\n- a list\n", "mapping"),
            ("series: [xenial]\n", "must declare a name"),
            ("name: app\nseries: [xenial]\nbogus: 1\n", "unknown charm key"),
            ("name: app\nseries: xenial\nhandlers:\n  - do:\n      - fail: x\n", "'on' event"),
            (
                "name: app\nseries: [xenial]\nhandlers:\n"
                "  - on: install\n    retries: 3\n    do:\n      - fail: x\n",
                "unknown handler key",
            ),
            (
                "name: app\nseries: [xenial]\nhandlers:\n  - on: install\n    do: []\n",
                "no actions",
            ),
            (
                "name: app\nseries: [xenial]\nhandlers:\n"
                "  - on: install\n    do:\n      - reboot: now\n",
                "unknown action",
            ),
            (
                "name: app\nseries: [xenial]\nhandlers:\n"
                "  - on: install\n    do:\n      - open-port: http\n",
                "integer",
            ),
            ("name: app\nseries: [xenial]\nowner: [a]\n", "owner must be a string"),
            ("name: app\nseries: {bad: map}\n", "series must be a list"),
        ],
    )
    def test_malformed_documents(self, text, match):
        with pytest.raises(CharmError, match=match):
            load_charm(text)

    def test_yaml_syntax_error(self):
        with pytest.raises(CharmError, match="malformed charm document"):
            load_charm("name: [unclosed\n")

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("name: a\nname: b\n", "duplicate key 'name' (line 2, column 1)"),
            ("name: a\n[x]: y\n", "mapping key must be a scalar (line 2, column 1)"),
            ("name: a\noptions:\n  a: &o {type: int}\n  b:\n    <<: *o\n",
             "could not determine a constructor for the tag 'tag:yaml.org,2002:merge'"
             " (line 5, column 5)"),
            ("", "not a mapping"),
        ],
        ids=["duplicate-key", "sequence-key", "merge-key", "empty"],
    )
    def test_strict_yaml(self, text, message):
        with pytest.raises(CharmError) as err:
            load_charm(text)
        assert str(err.value) == f"malformed charm document: {message}"


class TestSpecValidation:
    def _register(self, spec):
        CharmStore().register_charm(spec)

    def test_no_series(self):
        with pytest.raises(CharmError, match="no series"):
            self._register(CharmSpec(name="app", series=frozenset()))

    def test_bad_name(self):
        with pytest.raises(CharmError, match="invalid charm name"):
            self._register(CharmSpec(name="App!", series=frozenset({"xenial"})))

    def test_provides_requires_overlap(self):
        with pytest.raises(CharmError, match="both provides and requires"):
            self._register(
                CharmSpec(
                    name="app",
                    series=frozenset({"xenial"}),
                    provides={"db": "pgsql"},
                    requires={"db": "pgsql"},
                )
            )

    def test_undeclared_endpoint_in_handler(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            handlers=(
                HookHandler(on=EventKind.relation_joined("db"), actions=(SetState("x"),)),
            ),
        )
        with pytest.raises(CharmError, match="undeclared endpoint"):
            self._register(spec)

    def test_undeclared_storage_pool(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            handlers=(
                HookHandler(on=EventKind("storage-attached", "data"), actions=(SetState("x"),)),
            ),
        )
        with pytest.raises(CharmError, match="undeclared pool"):
            self._register(spec)

    def test_reserved_status(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            handlers=(
                HookHandler(on=EventKind.install(), actions=(SetUnitStatus("allocating"),)),
            ),
        )
        with pytest.raises(CharmError, match="may not set status"):
            self._register(spec)

    @pytest.mark.parametrize("port", [0, 65536, -1])
    def test_port_out_of_range(self, port):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            handlers=(HookHandler(on=EventKind.install(), actions=(OpenPort(port),)),),
        )
        with pytest.raises(CharmError, match="out of range"):
            self._register(spec)

    def test_relation_data_undeclared_endpoint(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            handlers=(
                HookHandler(
                    on=EventKind.install(),
                    actions=(SetRelationData(endpoint="db", key="k", value="v"),),
                ),
            ),
        )
        with pytest.raises(CharmError, match="undeclared endpoint"):
            self._register(spec)

    def test_template_unknown_option(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            provides={"db": "pgsql"},
            handlers=(
                HookHandler(
                    on=EventKind.relation_joined("db"),
                    actions=(SetRelationData(endpoint="db", key="k", value="{config:nope}"),),
                ),
            ),
        )
        with pytest.raises(CharmError, match="unknown option"):
            self._register(spec)

    def test_remote_template_outside_relation_handler(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            provides={"db": "pgsql"},
            handlers=(
                HookHandler(
                    on=EventKind.install(),
                    actions=(SetRelationData(endpoint="db", key="k", value="{remote:host}"),),
                ),
            ),
        )
        with pytest.raises(CharmError, match="outside a relation-event handler"):
            self._register(spec)

    def test_bad_option_type(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            config={"x": OptionSchema(type="decimal")},
        )
        with pytest.raises(CharmError, match="unknown type"):
            self._register(spec)

    def test_default_must_conform(self):
        spec = CharmSpec(
            name="app",
            series=frozenset({"xenial"}),
            config={"x": OptionSchema(type="int", default="many")},
        )
        with pytest.raises(CharmError, match="default does not conform"):
            self._register(spec)


class TestCharmRefs:
    def test_plain(self):
        assert charm_ref("moodle") == "cs:moodle"
        assert parse_charm_ref("cs:moodle") == (None, "moodle")

    def test_owned(self):
        assert charm_ref("moodle", "csd") == "cs:~csd/moodle"
        assert parse_charm_ref("cs:~csd/moodle") == ("csd", "moodle")

    @pytest.mark.parametrize(
        "ref",
        ["moodle", "cs:", "cs:~/moodle", "cs:~csd", "cs:a/b", "cs:~csd/a/b", 7],
    )
    def test_malformed(self, ref):
        with pytest.raises(CharmError, match="malformed charm reference"):
            parse_charm_ref(ref)

    @given(
        owner=st.none() | st.from_regex(r"[a-z][a-z0-9-]{0,11}", fullmatch=True),
        name=st.from_regex(r"[a-z][a-z0-9-]{0,11}", fullmatch=True),
    )
    @settings(deadline=None, max_examples=100)
    def test_ref_round_trip(self, owner, name):
        assert parse_charm_ref(charm_ref(name, owner)) == (owner, name)


class TestCharmStore:
    def test_builtin_refs(self):
        store = builtin_store()
        assert store.refs() == ["cs:haproxy", "cs:postgresql", "cs:~csd-garr/moodle"]
        assert len(store) == 3

    def test_resolve(self):
        store = builtin_store()
        assert store.resolve_charm("cs:~csd-garr/moodle").name == "moodle"

    def test_resolve_unknown(self):
        with pytest.raises(CharmNotFoundError, match="unknown charm reference"):
            builtin_store().resolve_charm("cs:wordpress")

    def test_resolve_malformed_is_shape_error(self):
        # A malformed ref fails ref parsing, not lookup.
        with pytest.raises(CharmError, match="malformed"):
            builtin_store().resolve_charm("wordpress")

    def test_register_duplicate(self):
        store = CharmStore()
        spec = CharmSpec(name="app", series=frozenset({"xenial"}))
        store.register_charm(spec)
        with pytest.raises(CharmError, match="already registered"):
            store.register_charm(spec)

    def test_register_with_owner_distinct(self):
        store = CharmStore()
        spec = CharmSpec(name="app", series=frozenset({"xenial"}))
        assert store.register_charm(spec) == "cs:app"
        assert store.register_charm(spec, owner="csd") == "cs:~csd/app"
        assert store.resolve_charm("cs:~csd/app") is spec

    @pytest.mark.parametrize(
        "use",
        [
            len,
            CharmStore.refs,
            lambda store: store.resolve_charm("cs:postgresql"),
            lambda store: store.register_charm(load_charm(MOODLE_CHARM)[0], owner="csd"),
        ],
        ids=["len", "refs", "resolve", "register"],
    )
    def test_loader_runs_once_on_first_use(self, use):
        runs = []

        def loader():
            runs.append(1)
            yield load_charm(POSTGRESQL_CHARM)

        store = CharmStore(loader)
        assert runs == []
        use(store)
        assert runs == [1]
        assert "cs:postgresql" in store.refs()
        assert store.resolve_charm("cs:postgresql").name == "postgresql"
        assert runs == [1]

    def test_failed_load_leaves_the_store_unloaded(self):
        runs = []

        def loader():
            runs.append(1)
            yield load_charm(POSTGRESQL_CHARM)
            yield load_charm("name: [unclosed")

        store = CharmStore(loader)
        for expected_runs in (1, 2):
            with pytest.raises(CharmError, match="malformed charm document"):
                store.resolve_charm("cs:postgresql")
            assert len(runs) == expected_runs

    def test_register_validates(self):
        with pytest.raises(CharmError):
            CharmStore().register_charm(CharmSpec(name="app", series=frozenset()))

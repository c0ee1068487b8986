"""Bundle DSL: constraint grammar, placements, parsing, validation."""

from __future__ import annotations

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedweave import bundle as bundle_module
from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE
from fedweave.bundle import (
    BundleError,
    BundleParseError,
    ConstraintError,
    Constraints,
    Placement,
    PlacementError,
    parse_bundle,
    parse_constraints,
    parse_placement,
    render_bundle,
    render_constraints,
    validate_bundle,
)
from fedweave.bundle import _load_reference, _load_yaml

MOODLE_CONSTRAINTS = "arch=amd64 cpu-cores=1 mem=2048 root-disk=20480"


class TestConstraints:
    def test_parse_full(self):
        c = parse_constraints(MOODLE_CONSTRAINTS)
        assert c == Constraints(arch="amd64", cpu_cores=1, mem=2048, root_disk=20480)

    def test_parse_tags(self):
        c = parse_constraints("tags=ssd,gpu")
        assert c.tags == frozenset({"ssd", "gpu"})

    def test_empty_is_unconstrained(self):
        assert parse_constraints("").is_unconstrained()
        assert parse_constraints("   ").is_unconstrained()

    @pytest.mark.parametrize(
        "text",
        [
            "cores=2",          # unknown key
            "mem=2G",           # suffixes not supported
            "mem=-1",           # negative
            "mem=2048 mem=4096",  # duplicate
            "mem",              # no '='
            "arch=",            # empty value
            "cpu-cores=two",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ConstraintError):
            parse_constraints(text)

    def test_zero_minimum_is_vacuous_but_well_formed(self):
        assert parse_constraints("mem=0").mem == 0

    def test_render_canonical_order(self):
        c = parse_constraints("root-disk=100 arch=amd64 tags=b,a mem=5 cpu-cores=2")
        assert render_constraints(c) == "arch=amd64 cpu-cores=2 mem=5 root-disk=100 tags=a,b"

    @given(
        st.builds(
            Constraints,
            arch=st.none() | st.sampled_from(["amd64", "arm64", "ppc64el"]),
            cpu_cores=st.none() | st.integers(min_value=1, max_value=256),
            mem=st.none() | st.integers(min_value=1, max_value=1 << 20),
            root_disk=st.none() | st.integers(min_value=1, max_value=1 << 24),
            tags=st.frozensets(
                st.from_regex(r"[a-z0-9][a-z0-9_.-]{0,7}", fullmatch=True),
                max_size=4,
            ),
        )
    )
    @settings(deadline=None, max_examples=200)
    def test_render_parse_round_trip(self, constraints):
        # Canonical text reproduces the constraint set exactly.
        assert parse_constraints(render_constraints(constraints)) == constraints


class TestPlacement:
    def test_fresh(self):
        assert parse_placement(None) == Placement.fresh()
        assert parse_placement("") == Placement.fresh()

    def test_machine(self):
        assert parse_placement("0") == Placement.on_machine("0")
        assert parse_placement(4) == Placement.on_machine("4")

    def test_container(self):
        assert parse_placement("lxd:0") == Placement.in_container("lxd", "0")

    @pytest.mark.parametrize("token", ["kvm:0", "lxd:", "lxd:x", "banana", "0/lxd/0"])
    def test_rejects(self, token):
        with pytest.raises(PlacementError):
            parse_placement(token)


class TestParseBundle:
    def test_moodle_fixture_shape(self):
        bundle = parse_bundle(MOODLE_BUNDLE)
        assert set(bundle.applications) == {"moodle", "postgresql"}
        moodle = bundle.applications["moodle"]
        assert moodle.charm == "cs:~csd-garr/moodle"
        assert moodle.num_units == 1
        assert moodle.placements == (Placement.on_machine("0"),)
        pg = bundle.applications["postgresql"]
        assert pg.placements == (Placement.in_container("lxd", "0"),)
        assert pg.options["extra_pg_auth"].startswith("host moodle")
        assert bundle.machines["0"].series == "xenial"
        assert bundle.machines["0"].constraints.mem == 2048
        ((left, right),) = bundle.relations
        assert (left.render(), right.render()) == ("postgresql:db", "moodle:database")

    def test_scaled_fixture_shape(self):
        bundle = parse_bundle(SCALED_BUNDLE)
        assert bundle.default_series == "xenial"
        assert bundle.applications["haproxy"].expose is True
        assert len(bundle.relations) == 2
        assert bundle.machines["4"].constraints.is_unconstrained()

    def test_duplicate_yaml_key_rejected_with_position(self):
        text = "applications:\n  a:\n    charm: cs:x\n  a:\n    charm: cs:y\n"
        with pytest.raises(BundleParseError) as err:
            parse_bundle(text)
        assert err.value.line is not None

    def test_unknown_top_level_key(self):
        with pytest.raises(BundleError, match="serie"):
            parse_bundle("serie: xenial\napplications: {}\n")

    def test_unknown_application_key(self):
        text = "applications:\n  a:\n    charm: cs:x\n    units: 2\n"
        with pytest.raises(BundleError, match="units"):
            parse_bundle(text)

    def test_more_placements_than_units(self):
        text = (
            "applications:\n"
            "  a:\n    charm: cs:x\n    num_units: 1\n    to: [0, 1]\n"
            "machines:\n  '0': {series: xenial}\n  '1': {series: xenial}\n"
        )
        with pytest.raises(BundleError, match="places"):
            parse_bundle(text)

    def test_placement_must_reference_declared_machine(self):
        text = "applications:\n  a:\n    charm: cs:x\n    to: [7]\n"
        with pytest.raises(BundleError, match="7"):
            parse_bundle(text)

    def test_machine_ids_numeric(self):
        text = "applications: {}\nmachines:\n  zero: {series: xenial}\n"
        with pytest.raises(BundleError):
            parse_bundle(text)

    def test_machine_without_series_needs_default(self):
        text = "applications: {}\nmachines:\n  '0': {}\n"
        with pytest.raises(BundleError, match="series"):
            parse_bundle(text)
        # the top-level default fills it in
        bundle = parse_bundle("series: bionic\napplications: {}\nmachines:\n  '0': {}\n")
        assert bundle.machines["0"].series == "bionic"

    def test_relation_to_unknown_application(self):
        text = (
            "applications:\n  a:\n    charm: cs:x\n"
            "relations:\n  - [\"a:db\", \"b:db\"]\n"
        )
        with pytest.raises(BundleError, match="b"):
            parse_bundle(text)

    def test_duplicate_relation(self):
        text = (
            "applications:\n"
            "  a:\n    charm: cs:x\n"
            "  b:\n    charm: cs:y\n"
            "relations:\n  - [\"a:db\", \"b:db\"]\n  - [\"b:db\", \"a:db\"]\n"
        )
        with pytest.raises(BundleError, match="duplicate"):
            parse_bundle(text)

    def test_non_scalar_option_rejected(self):
        text = "applications:\n  a:\n    charm: cs:x\n    options:\n      bad: [1, 2]\n"
        with pytest.raises(BundleError, match="bad"):
            parse_bundle(text)

    @pytest.mark.parametrize("text", [MOODLE_BUNDLE, SCALED_BUNDLE])
    def test_render_round_trip(self, text):
        bundle = parse_bundle(text)
        assert parse_bundle(render_bundle(bundle)) == bundle

    def test_render_is_stable(self):
        bundle = parse_bundle(SCALED_BUNDLE)
        once = render_bundle(bundle)
        assert render_bundle(parse_bundle(once)) == once


#: Every malformed bundle the tests feed the parser, with the exact error it
#: gets; the YAML syntax errors carry the pure-Python parser's wording.
MALFORMED_BUNDLES = [
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n  a:\n    charm: cs:y\n",
        BundleParseError, "duplicate key 'a' (line 4, column 3)", id="duplicate-key",
    ),
    pytest.param(
        "serie: xenial\napplications: {}\n",
        BundleError, "unknown top-level key 'serie'", id="unknown-top-level-key",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n    units: 2\n",
        BundleError, "unknown application key 'units' on 'a'", id="unknown-application-key",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n    num_units: 1\n    to: [0, 1]\n"
        "machines:\n  '0': {series: xenial}\n  '1': {series: xenial}\n",
        BundleError, "application 'a' places 2 units but num_units is 1",
        id="too-many-placements",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n    to: [7]\n",
        BundleError, "application 'a' placed on undeclared machine '7'",
        id="undeclared-machine",
    ),
    pytest.param(
        "applications: {}\nmachines:\n  zero: {series: xenial}\n",
        BundleError, "machine id 'zero' is not numeric", id="non-numeric-machine",
    ),
    pytest.param(
        "applications: {}\nmachines:\n  '0': {}\n",
        BundleError, "machine '0' has no series and the bundle declares no default",
        id="no-series",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\nrelations:\n  - [\"a:db\", \"b:db\"]\n",
        BundleError, "relations[0] references unknown application 'b'",
        id="unknown-relation-application",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n  b:\n    charm: cs:y\n"
        "relations:\n  - [\"a:db\", \"b:db\"]\n  - [\"b:db\", \"a:db\"]\n",
        BundleError, "relations[1] duplicates an earlier relation", id="duplicate-relation",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n    options:\n      bad: [1, 2]\n",
        BundleError, "application 'a' option 'bad' must be a scalar", id="non-scalar-option",
    ),
    pytest.param(
        "machines:\n  '0':\n    series: xenial\n    constraints: mem=2G\n",
        ConstraintError, "non-numeric value '2G' for constraint key 'mem'",
        id="bad-constraint",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n    to: ['kvm:0']\n",
        PlacementError, "unknown container kind 'kvm'", id="bad-container-kind",
    ),
    pytest.param(
        "- just\n- a list\n",
        BundleParseError, "bundle document must be a mapping", id="not-a-mapping",
    ),
    pytest.param(
        "applications:\n  a: [unclosed\n",
        BundleParseError, "expected ',' or ']', but got '<stream end>' (line 3, column 1)",
        id="unclosed-flow-sequence",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: cs:x\n   num_units: 1\n",
        BundleParseError,
        "expected <block end>, but found '<block mapping start>' (line 4, column 4)",
        id="bad-indentation",
    ),
    pytest.param(
        "applications: a: b\n",
        BundleParseError, "mapping values are not allowed here (line 1, column 16)",
        id="nested-mapping-value",
    ),
    pytest.param(
        "applications:\n\tweb: {}\n",
        BundleParseError, "found character '\\t' that cannot start any token (line 2, column 1)",
        id="tab-indentation",
    ),
    pytest.param(
        "{[a]: b}\n",
        BundleParseError, "mapping key must be a scalar (line 1, column 2)",
        id="sequence-key",
    ),
    pytest.param(
        "applications:\n  {charm: cs:x}: {}\n",
        BundleParseError, "mapping key must be a scalar (line 2, column 3)",
        id="mapping-key-under-applications",
    ),
    pytest.param(
        "a: 1\n---\nb: 2\n",
        BundleParseError, "but found another document (line 2, column 1)", id="two-documents",
    ),
    pytest.param(
        "applications: {a: {charm: 'cs:x}}\n",
        BundleParseError, "found unexpected end of stream (line 2, column 1)",
        id="unclosed-quote",
    ),
    pytest.param(
        "applications:\n  a:\n    charm: \"cs:x\\q\"\n",
        BundleParseError, "found unknown escape character 'q' (line 3, column 18)",
        id="unknown-escape",
    ),
]

#: YAML indicators, characters outside the subset libyaml parses (tab, CR,
#: BOM, non-ASCII line breaks and letters), escapes and bundle words.
YAML_PIECES = [
    " ", "  ", "\n", "\n  ", "\n    ", ": ", "- ", "\n- ", ":", "-", ",", "[", "]", "{", "}",
    "#", "'", '"', "\\", "\\n", "\\x41", "\\u00e9", "!", "!!str ", "&a ", "*a", "? ", "|",
    ">", "|-\n  x", "%", "@", "`", "~", "---", "...", "\t", "\r", "\r\n", "\ufeff", "\x85",
    "\u2028", "\xa0", "é", "ß", "a", "b0", "0", "1.5", "0x1F", "yes", "null", "2020-01-01",
    "applications", "machines", "relations", "series", "charm", "cs:x", "num_units", "to",
    "options", "lxd:0",
]


def _outcome(load, text: str) -> tuple[str, str]:
    """What a loader makes of ``text``: its value, or its exception's type and message."""
    try:
        return "value", repr(load(text))
    except Exception as exc:  # a crash must match too
        return type(exc).__name__, str(exc)


_free_text = st.lists(st.sampled_from(YAML_PIECES), max_size=24).map("".join)
_scalar = (
    st.none() | st.booleans() | st.integers(-5, 5000) | st.floats(allow_nan=False)
    | st.text(st.sampled_from("ab 0:-#'\"\\\t\r\né\x85\u2028!&*?|>%@`"), max_size=8)
)


@st.composite
def _bundle_text(draw) -> str:
    """A bundle-shaped document in one of PyYAML's styles, with pieces spliced in."""
    names = st.sampled_from(["moodle", "haproxy", "pg", "web", "a b", "é"])
    application = st.fixed_dictionaries(
        {"charm": st.sampled_from(["cs:x", "cs:~o/y", "cs:é"]), "num_units": st.integers(0, 3)},
        optional={
            "to": st.lists(st.sampled_from([0, "0", "lxd:0", None, ""]), max_size=2),
            "options": st.dictionaries(st.sampled_from(["opt", "n", "1"]), _scalar, max_size=3),
            "expose": st.booleans(),
        },
    )
    doc = draw(st.fixed_dictionaries(
        {"applications": st.dictionaries(names, application, max_size=3)},
        optional={
            "series": st.sampled_from(["xenial", "bionic"]),
            "machines": st.dictionaries(
                st.sampled_from(["0", "1"]),
                st.fixed_dictionaries({"series": st.just("xenial")},
                                      optional={"constraints": st.just("mem=2048 arch=amd64")}),
                max_size=2,
            ),
            "relations": st.lists(st.lists(st.sampled_from(["moodle:db", "pg:db"]),
                                           min_size=2, max_size=2), max_size=2),
        },
    ))
    text = yaml.safe_dump(doc, sort_keys=draw(st.booleans()),
                          default_flow_style=draw(st.sampled_from([False, True, None])),
                          allow_unicode=draw(st.booleans()))
    for position, piece in draw(st.lists(st.tuples(st.integers(0, len(text)), _free_text),
                                         max_size=3)):
        text = text[:position] + piece + text[position:]
    return text


class TestLoader:
    """Bundles parse with libyaml where it reads like the pure-Python
    reference loader, and with the reference loader everywhere else."""

    @given(st.one_of(_free_text, _bundle_text()))
    @example("{[a]: b}")
    @example("applications: {[a]: b}\n")
    @example("applications:\n  {x: 1}: b\n")
    @settings(deadline=None, max_examples=400)
    def test_load_yaml_matches_the_reference_loader(self, text):
        assert _outcome(_load_yaml, text) == _outcome(_load_reference, text)

    @pytest.mark.skipif(bundle_module._CStrictLoader is None,
                        reason="PyYAML is built without libyaml")
    @pytest.mark.parametrize("text", [MOODLE_BUNDLE, SCALED_BUNDLE], ids=["moodle", "scaled"])
    def test_fixtures_take_the_libyaml_path(self, monkeypatch, text):
        expected = parse_bundle(text)

        def refuse(_text):
            raise AssertionError("the reference loader ran")

        monkeypatch.setattr(bundle_module, "_load_reference", refuse)
        assert parse_bundle(text) == expected

    @pytest.mark.parametrize(
        "text",
        [MOODLE_BUNDLE, SCALED_BUNDLE, render_bundle(parse_bundle(SCALED_BUNDLE)),
         "series: xenial\napplications:\n  web: {charm: cs:haproxy, num_units: 2,"
         " options: {n: 3, ratio: 0.5, enabled: yes, day: 2020-01-01, none: ~}}\n"],
        ids=["moodle", "scaled", "scaled-rendered", "typed-options"],
    )
    def test_fixtures_parse_alike_without_libyaml(self, monkeypatch, text):
        fast = parse_bundle(text)
        monkeypatch.setattr(bundle_module, "_CStrictLoader", None)
        reference = parse_bundle(text)
        assert repr(reference) == repr(fast)
        assert render_bundle(reference) == render_bundle(fast)

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "reference"])
    @pytest.mark.parametrize(("text", "error", "message"), MALFORMED_BUNDLES)
    def test_malformed_bundles_keep_their_messages(self, monkeypatch, libyaml, text, error,
                                                   message):
        if not libyaml:
            monkeypatch.setattr(bundle_module, "_CStrictLoader", None)
        with pytest.raises(BundleError) as err:
            parse_bundle(text)
        assert type(err.value) is error
        assert str(err.value) == message


class TestValidateBundle:
    def test_fixtures_are_clean(self, store):
        for text in (MOODLE_BUNDLE, SCALED_BUNDLE):
            assert validate_bundle(parse_bundle(text), store) == []

    def test_unresolvable_charm(self, store):
        bundle = parse_bundle("applications:\n  a:\n    charm: cs:nonesuch\n")
        diags = validate_bundle(bundle, store)
        assert [d.severity for d in diags] == ["error"]
        assert "nonesuch" in diags[0].message

    def test_unknown_option(self, store):
        text = (
            "applications:\n  moodle:\n    charm: cs:~csd-garr/moodle\n"
            "    options: {font: comic-sans}\n"
        )
        diags = validate_bundle(parse_bundle(text), store)
        assert any(d.severity == "error" and "font" in d.message for d in diags)

    def test_uncoercible_option(self, store):
        text = (
            "applications:\n  postgresql:\n    charm: cs:postgresql\n"
            "    options: {listen_port: fast}\n"
        )
        diags = validate_bundle(parse_bundle(text), store)
        assert any(d.severity == "error" for d in diags)

    def test_placement_on_unsupported_series(self, store):
        text = (
            "series: xenial\n"
            "machines: {\"0\": {series: bionic}}\n"
            "applications:\n"
            "  postgresql: {charm: \"cs:postgresql\", num_units: 1, to: [\"lxd:0\"]}\n"
        )
        diags = validate_bundle(parse_bundle(text), store)
        assert [d.render() for d in diags] == [
            "error: applications.postgresql.to[0]: "
            "charm 'postgresql' does not support series 'bionic' of machine '0'"
        ]

    def test_partial_placement_warns(self, store):
        text = (
            "applications:\n  moodle:\n    charm: cs:~csd-garr/moodle\n"
            "    num_units: 3\n    to: [0]\n"
            "machines:\n  '0': {series: xenial}\n"
        )
        diags = validate_bundle(parse_bundle(text), store)
        assert [d.severity for d in diags] == ["warning"]

    def test_interface_mismatch(self, store):
        # haproxy requires http; postgresql provides pgsql — no match.
        text = (
            "series: xenial\n"
            "applications:\n"
            "  haproxy:\n    charm: cs:haproxy\n"
            "  postgresql:\n    charm: cs:postgresql\n"
            "relations:\n  - [\"haproxy:reverseproxy\", \"postgresql:db\"]\n"
        )
        diags = validate_bundle(parse_bundle(text), store)
        assert any(d.severity == "error" and "interface" in d.message for d in diags)

    def test_missing_endpoint(self, store):
        text = (
            "series: xenial\n"
            "applications:\n"
            "  moodle:\n    charm: cs:~csd-garr/moodle\n"
            "  postgresql:\n    charm: cs:postgresql\n"
            "relations:\n  - [\"postgresql:db\", \"moodle:db\"]\n"
        )
        diags = validate_bundle(parse_bundle(text), store)
        assert any(d.severity == "error" for d in diags)

    def test_diagnostic_render(self, store):
        bundle = parse_bundle("applications:\n  a:\n    charm: cs:nonesuch\n")
        (diag,) = validate_bundle(bundle, store)
        assert diag.render() == f"error: {diag.path}: {diag.message}"

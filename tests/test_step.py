"""The engine step against the reference step, and the tracer's hook on it.

``engine.step`` skips the work an event cannot cause: a step whose event
matches no handler builds no conflict tracker or flag snapshot and looks
for neither relation-changed emission nor redelivery, and leader upkeep,
emission and redelivery run only when there is something for them to do.
``oracles.step_oracle`` does all of it on every step, through its own
copy of the action path.  Two copies of a model, one stepped by each,
must agree after every event: the report, the queue, the trace, the
random state and the whole checkpoint.  The engine hands a generator only
the steps with two or more handlers to order, the reference every step;
shuffling fewer draws no random number, so the random states still agree.
Generated two-application charms put the engine's compiled writes against
the reference's one-action-at-a-time path, under strict and lax conflicts
and with the shadow check on and off.

The benchmark's tracer wraps the module global ``engine.step``, which
``run_to_convergence`` must therefore call once per event.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import seen_groups_oracle, seen_keys, step_oracle
from test_acceptance import FIXTURES
from test_dispatch import TWIN_BUNDLE, TWIN_CHARM

from fedweave import engine
from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE, builtin_store
from fedweave.bundle import parse_bundle
from fedweave.charms import (RELATION_EVENTS, SETTABLE_STATUSES, CharmSpec, ClearState,
                             EventKind, Fail, HookHandler, OpenPort, OptionSchema,
                             SetRelationData, SetState, SetUnitStatus, load_charm)
from fedweave.engine import (
    CharmConflictError,
    Model,
    StepReport,
    add_unit,
    checkpoint,
    deploy_bundle,
    remove_unit,
    run_to_convergence,
    set_config,
)
from fedweave.provider import Inventory

# No handler on install, so every install takes the short path and must
# still be followed by start.
LAZY_CHARM = """\
name: lazy
series: [xenial]
requires:
  database: pgsql
handlers:
  - on: start
    do:
      - set-status: active
  - on: database-relation-changed
    do:
      - set-state: ready
"""

LAZY_BUNDLE = TWIN_BUNDLE.replace("cs:twin", "cs:lazy")

CORPUS = list(dict.fromkeys((MOODLE_BUNDLE, SCALED_BUNDLE, *FIXTURES, TWIN_BUNDLE, LAZY_BUNDLE)))


@pytest.fixture
def charm_store():
    store = builtin_store()
    for text in (TWIN_CHARM, LAZY_CHARM):
        spec, owner = load_charm(text)
        store.register_charm(spec, owner)
    return store


def _commands(bundle_text: str):
    """Deploy, then scale, reconfigure and shrink; each is converged."""
    return (
        lambda model: deploy_bundle(model, parse_bundle(bundle_text)),
        lambda model: add_unit(model, "moodle", count=2),
        lambda model: set_config(model, "postgresql", {"listen_port": 5433}),
        lambda model: remove_unit(model, "moodle/0"),
    )


def _agreeing_steps(lean: Model, reference: Model, bundle_text: str, step_lean, step_reference):
    """Apply each command to both models and step both to an empty queue,
    one ``step_lean()`` against one ``step_reference()``; after each pair,
    assert that the report, the queue, the trace, each unit's seen groups
    against the reference's set of keys regrouped, and the whole
    checkpoint agree, and yield the lean step's report."""
    lean.trace, reference.trace = [], []
    for command in _commands(bundle_text):
        command(lean)
        command(reference)
        while True:
            got = step_lean()
            want = step_reference()
            assert got._asdict() == want._asdict()
            assert list(lean.event_queue) == list(reference.event_queue), got.event
            assert lean.trace == reference.trace, got.event
            keys = seen_keys(reference)
            assert {unit_id: unit.seen for unit_id, unit in lean.units.items()} == {
                unit_id: seen_groups_oracle(keys.get(unit_id, ())) for unit_id in lean.units
            }, got.event
            assert checkpoint(lean) == checkpoint(reference), got.event
            yield got
            if got.event is None:
                break


class TestStepMatchesReference:
    @pytest.mark.parametrize(
        "bundle_text", CORPUS, ids=[f"bundle{i}" for i in range(len(CORPUS))]
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_step_agrees(self, charm_store, make_inventory, bundle_text, seed):
        lean, reference = (Model(charm_store, make_inventory(8)) for _ in range(2))
        lean_rng, reference_rng = random.Random(seed), random.Random(seed)
        steps = skipped = 0
        for got in _agreeing_steps(lean, reference, bundle_text,
                                   lambda: engine.step(lean, _rng=lean_rng),
                                   lambda: step_oracle(reference, _rng=reference_rng)):
            assert lean_rng.getstate() == reference_rng.getstate(), got.event
            if got.event is not None:
                steps += 1
                skipped += got.handlers_run == 0
        assert 0 < skipped < steps

    @pytest.mark.parametrize(
        "bundle_text", CORPUS, ids=[f"bundle{i}" for i in range(len(CORPUS))]
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_direct_step_agrees(self, monkeypatch, charm_store, make_inventory,
                                      bundle_text, seed):
        """Stepped one call at a time with only a seed, as a library caller
        does, the step builds ``random.Random(seed)`` on exactly the steps
        that match two or more handlers, and still agrees with the
        reference, which builds one on every step."""
        built = []

        class CountedRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(engine.random, "Random", CountedRandom)
        lean, reference = (Model(charm_store, make_inventory(8)) for _ in range(2))

        def direct_step():
            before = len(built)
            report = engine.step(lean, rng_seed=seed)
            assert built[before:] == ([(seed,)] if report.handlers_run > 1 else []), report
            return report

        multi = sum(
            got.handlers_run > 1
            for got in _agreeing_steps(lean, reference, bundle_text, direct_step,
                                       lambda: step_oracle(reference, rng_seed=seed))
        )
        if bundle_text == TWIN_BUNDLE:
            assert multi > 0
        if bundle_text == MOODLE_BUNDLE:
            assert multi == 0
        if multi == 0:
            # No step had two handlers to order, so ``run_to_convergence``
            # reaches the same state.
            twin = Model(charm_store, make_inventory(8))
            for command in _commands(bundle_text):
                command(twin)
                assert run_to_convergence(twin).converged
            assert engine.state_hash(twin) == engine.state_hash(lean)

    def test_report_keeps_its_fields_and_immutability(self):
        report = StepReport("install@moodle/0", handlers_run=2)
        assert report._asdict() == {
            "event": "install@moodle/0", "handlers_run": 2, "actions_applied": 0,
            "dropped": False, "emitted": 0, "redelivered": 0,
        }
        with pytest.raises(AttributeError):
            report.handlers_run = 3


# A 200-unit moodle fleet on fresh machines, its database and its proxies
# in containers on two declared machines.
FLEET_UNITS = 200
FLEET_BUNDLE = f"""\
series: xenial
applications:
  moodle:
    charm: "cs:~csd-garr/moodle"
    num_units: {FLEET_UNITS}
  postgresql:
    charm: "cs:postgresql"
    num_units: 2
    to: ["lxd:0", "lxd:0"]
  haproxy:
    charm: "cs:haproxy"
    num_units: 2
    expose: true
    to: ["lxd:1", "lxd:1"]
relations:
  - ["postgresql:db", "moodle:database"]
  - ["haproxy:reverseproxy", "moodle:website"]
machines:
  "0": {{series: xenial}}
  "1": {{series: xenial}}
"""


def test_fleet_deploy_processes_the_pinned_events(store, make_inventory):
    """A faster step must process, run, emit, re-deliver and drop exactly
    the events the engine did when these totals were taken, count the
    actions its handlers apply as the engine did when it applied them one
    at a time, and reach the same state."""
    model = Model(store, make_inventory(FLEET_UNITS + 2))
    deploy_bundle(model, parse_bundle(FLEET_BUNDLE))
    rng = random.Random(engine.DEFAULT_SEED)
    totals = {"events": 0, "handlers_run": 0, "actions_applied": 0, "emitted": 0,
              "redelivered": 0, "dropped": 0}
    while (report := engine.step(model, _rng=rng)).event is not None:
        totals["events"] += 1
        for name in ("handlers_run", "actions_applied", "emitted", "redelivered", "dropped"):
            totals[name] += getattr(report, name)
    assert totals == {"events": 3011, "handlers_run": 1608, "actions_applied": 3218,
                      "emitted": 800, "redelivered": 200, "dropped": 0}
    assert engine.state_hash(model) == (
        "efa34b092ff9f0bd1c1611de80ba1801b0cb9415562b162d73fff18ad230c4a3")
    assert {unit.status for unit in model.units.values()} == {"active"}


@pytest.mark.parametrize(
    ("bundle_text", "machines", "digest"),
    [(TWIN_BUNDLE, 8, "f7257835cdf374b86f419c3e47b63f437a89ef3abe725760447dbd51151179b1"),
     (FLEET_BUNDLE, FLEET_UNITS + 2,
      "efa34b092ff9f0bd1c1611de80ba1801b0cb9415562b162d73fff18ad230c4a3")],
    ids=["twin", "fleet"],
)
def test_the_generator_shuffles_only_competing_handlers(monkeypatch, charm_store, make_inventory,
                                                        bundle_text, machines, digest):
    """``run_to_convergence``'s generator is asked to shuffle on exactly the
    steps that run two or more handlers, and the run reaches the hash it
    reached when every step asked it."""
    shuffles = []

    class CountedRandom(random.Random):
        def shuffle(self, x):
            shuffles.append(len(x))
            super().shuffle(x)

    monkeypatch.setattr(engine.random, "Random", CountedRandom)
    real_step = engine.step
    steps = []  # (handlers run, shuffles asked for), per step

    def counted_step(*args, **kwargs):
        before = len(shuffles)
        report = real_step(*args, **kwargs)
        steps.append((report.handlers_run, len(shuffles) - before))
        return report

    monkeypatch.setattr(engine, "step", counted_step)
    model = Model(charm_store, make_inventory(machines))
    deploy_bundle(model, parse_bundle(bundle_text))
    assert run_to_convergence(model).converged
    assert [asked for _, asked in steps] == [int(run > 1) for run, _ in steps]
    assert all(length > 1 for length in shuffles)
    if bundle_text == TWIN_BUNDLE:
        assert shuffles
    assert engine.state_hash(model) == digest


class TestTracerHook:
    """``run_to_convergence`` looks ``step`` up as a module global on every
    event, so wrapping ``engine.step`` sees each event and the final empty
    step of a converged run."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        calls = []
        real_step = engine.step

        def spy(*args, **kwargs):
            report = real_step(*args, **kwargs)
            calls.append(report)
            return report

        monkeypatch.setattr(engine, "step", spy)
        return calls

    @pytest.mark.parametrize("bundle_text", [MOODLE_BUNDLE, SCALED_BUNDLE], ids=["moodle", "scaled"])
    def test_one_call_per_event_plus_the_last(self, monkeypatch, store, make_inventory,
                                              bundle_text):
        calls = self._spy(monkeypatch)
        model = Model(store, make_inventory(8))
        for command in _commands(bundle_text):
            command(model)
            calls.clear()
            result = run_to_convergence(model)
            assert result.converged
            assert len(calls) == result.events_processed + 1
            assert [report.event is None for report in calls] == [False] * (len(calls) - 1) + [True]

    def test_an_exhausted_budget_calls_once_per_event(self, monkeypatch, store, make_inventory):
        calls = self._spy(monkeypatch)
        model = Model(store, make_inventory())
        deploy_bundle(model, parse_bundle(MOODLE_BUNDLE))
        result = run_to_convergence(model, budget=5)
        assert result.outcome == "budget-exhausted"
        assert len(calls) == result.events_processed == 5


# ---------------------------------------------------------------------------
# Generated charms: the engine applies each handler's compiled writes, the
# reference its actions one at a time.

_FLAGS = ("a", "b", "c")
_LIFECYCLE = tuple(EventKind(kind) for kind in ("install", "start", "config-changed",
                                                  "leader-elected"))
_RELATION = tuple(EventKind(kind, "link") for kind in RELATION_EVENTS)
_LITERALS = ("x", "y", "{config:opt}", "{config:opt}/x")
_TEMPLATES = _LITERALS + ("{remote:k}", "<{remote:j}|{config:opt}>")  # relation events only
_PAIR = """\
series: xenial
applications:
  left: {charm: "cs:left", num_units: 2}
  right: {charm: "cs:right", num_units: 2}
relations:
  - ["left:link", "right:link"]
"""
_STEPS = 150  # per command; a generated pair may echo data forever


def _action(on: EventKind):
    values = _TEMPLATES if on.kind in RELATION_EVENTS else _LITERALS
    return st.one_of(
        st.builds(SetUnitStatus, st.sampled_from(sorted(SETTABLE_STATUSES))),
        st.builds(SetState, st.sampled_from(_FLAGS)),
        st.builds(ClearState, st.sampled_from(_FLAGS)),
        st.builds(SetRelationData, st.just("link"), st.sampled_from(("k", "j")),
                  st.sampled_from(values)),
        st.builds(OpenPort, st.sampled_from((80, 443))),
        st.builds(Fail, st.sampled_from(("broken", "down"))),
    )


@st.composite
def _handler(draw) -> HookHandler:
    on = draw(st.sampled_from(_LIFECYCLE + _RELATION))
    actions = draw(st.lists(_action(on), min_size=1, max_size=5))
    return HookHandler(on, tuple(actions), draw(st.frozensets(st.sampled_from(_FLAGS),
                                                               max_size=2)))


_HANDLERS = st.lists(_handler(), min_size=1, max_size=6).map(tuple)


def _pair_store(left: tuple, right: tuple):
    store = builtin_store()
    option = {"opt": OptionSchema("string", "v")}
    store.register_charm(CharmSpec("left", frozenset({"xenial"}), provides={"link": "gen"},
                                   config=option, handlers=left))
    store.register_charm(CharmSpec("right", frozenset({"xenial"}), requires={"link": "gen"},
                                   config=option, handlers=right))
    return store


def _pair_inventory() -> Inventory:
    inventory = Inventory()
    inventory.add_zone("garr-01", "az1")
    for _ in range(6):
        inventory.enlist(region="garr-01", az="az1", arch="amd64", cores=4, mem=8192,
                         disk=102400, series="xenial")
    return inventory


def _outcome(step_one):
    """What one step did: its report, or the conflict it raised."""
    try:
        return step_one()._asdict()
    except CharmConflictError as exc:
        return (type(exc), str(exc))


_SET_TWICE = (
    HookHandler(EventKind("install"), (SetRelationData("link", "k", "x"),
                                       SetRelationData("link", "k", "y"), SetState("a"),
                                       ClearState("a"), SetState("b"))),
    HookHandler(EventKind("start"), (SetUnitStatus("active"), Fail("broken"),
                                     SetUnitStatus("blocked"), SetState("c")),
                frozenset({"b"})),
    HookHandler(EventKind("relation-changed", "link"),
                (SetRelationData("link", "j", "<{remote:k}|{config:opt}>"), OpenPort(80))),
    HookHandler(EventKind("config-changed"), (SetRelationData("link", "k", "{config:opt}"),)),
)
# One step adds two flags, and each completes the guard of a kind already seen.
_TWO_FLAGS = (
    HookHandler(EventKind("relation-joined", "link"), (SetState("b"), SetState("a"))),
    HookHandler(EventKind("install"), (SetUnitStatus("active"),), frozenset({"a"})),
    HookHandler(EventKind("leader-elected"), (SetState("c"),), frozenset({"b"})),
)
_CONFLICTING = (
    HookHandler(EventKind("install"), (SetUnitStatus("active"), SetState("a"))),
    HookHandler(EventKind("install"), (SetState("a"), SetUnitStatus("blocked"))),
    HookHandler(EventKind("relation-joined", "link"), (SetRelationData("link", "k", "x"),)),
)


def test_generated_charms_step_as_the_reference():
    """Two copies of a generated two-application model, one stepped by
    ``engine.step`` and one by ``oracles.step_oracle``, agree after every
    step of a deploy, a reconfiguration, a scale-up and a removal: on the
    report, ``shadow_deltas``, the state hash and the whole checkpoint, or
    on the conflict raised, by type and message.  Each command has its own
    step budget, and some examples must step the removal to its end."""
    removals_converged = []

    @example(left=_SET_TWICE, right=_CONFLICTING, strict=True, shadow=True, seed=1)
    @example(left=_SET_TWICE, right=_CONFLICTING, strict=False, shadow=True, seed=2)
    @example(left=_CONFLICTING, right=_SET_TWICE, strict=True, shadow=False, seed=3)
    @example(left=_TWO_FLAGS, right=_SET_TWICE, strict=False, shadow=False, seed=0)
    @given(left=_HANDLERS, right=_HANDLERS, strict=st.booleans(), shadow=st.booleans(),
           seed=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def check(left, right, strict, shadow, seed):
        store = _pair_store(left, right)
        lean, reference = (Model(store, _pair_inventory(), strict_conflicts=strict)
                           for _ in range(2))
        lean.shadow_check = reference.shadow_check = shadow
        lean_rng, reference_rng = random.Random(seed), random.Random(seed)
        commands = (lambda model: deploy_bundle(model, parse_bundle(_PAIR)),
                    lambda model: set_config(model, "left", {"opt": "w"}),
                    lambda model: add_unit(model, "right"),
                    lambda model: remove_unit(model, "left/0"))
        for command in commands:
            command(lean)
            command(reference)
            for _ in range(_STEPS):
                got = _outcome(lambda: engine.step(lean, _rng=lean_rng))
                want = _outcome(lambda: step_oracle(reference, _rng=reference_rng))
                assert got == want
                if type(got) is tuple:
                    return  # the same conflict, raised by both
                assert lean.shadow_deltas == reference.shadow_deltas, got
                assert engine.state_hash(lean) == engine.state_hash(reference), got
                assert checkpoint(lean) == checkpoint(reference), got
                if got["event"] is None:
                    break
        removals_converged.append(lean.converged)

    check()
    assert any(removals_converged)

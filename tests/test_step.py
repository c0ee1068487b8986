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

The benchmark's tracer wraps the module global ``engine.step``, which
``run_to_convergence`` must therefore call once per event.
"""

from __future__ import annotations

import random

import pytest
from oracles import seen_groups_oracle, seen_keys, step_oracle
from test_acceptance import FIXTURES
from test_dispatch import TWIN_BUNDLE, TWIN_CHARM

from fedweave import engine
from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE, builtin_store
from fedweave.bundle import parse_bundle
from fedweave.charms import load_charm
from fedweave.engine import (
    Model,
    StepReport,
    add_unit,
    checkpoint,
    deploy_bundle,
    remove_unit,
    run_to_convergence,
    set_config,
)

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
    the events the engine did when these totals were taken, and reach the
    same state."""
    model = Model(store, make_inventory(FLEET_UNITS + 2))
    deploy_bundle(model, parse_bundle(FLEET_BUNDLE))
    rng = random.Random(engine.DEFAULT_SEED)
    totals = {"events": 0, "handlers_run": 0, "emitted": 0, "redelivered": 0, "dropped": 0}
    while (report := engine.step(model, _rng=rng)).event is not None:
        totals["events"] += 1
        totals["handlers_run"] += report.handlers_run
        totals["emitted"] += report.emitted
        totals["redelivered"] += report.redelivered
        totals["dropped"] += report.dropped
    assert totals == {"events": 3011, "handlers_run": 1608, "emitted": 800,
                      "redelivered": 200, "dropped": 0}
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

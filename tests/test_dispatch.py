"""The charm's dispatch table and the flag-scoped redelivery, checked
against the linear scans they replace.

``step`` takes its candidate handlers from ``CharmSpec.dispatch`` and
``_redeliver`` visits only the seen events of kinds the charm guards with
a newly set flag.  ``oracles.matching_oracle`` and
``oracles.redeliver_oracle`` scan every handler and every seen event
instead.  On every step the handlers that run must equal the oracle's,
pair for pair and in the order the seeded shuffle gave them, and the
events the step re-enqueues must equal the oracle's.  The step hands the
generator only two or more handlers, in declaration order, so the
handlers run are read from the handler index each ``_run_handler`` call
carries: that sees a step that matched none or one as well.  Each call's
compiled writes must number the actions the handler applies, up to and
including its first ``fail``, counted from its action list.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis.stateful import rule
from oracles import flatten_seen, matching_oracle, redeliver_oracle
from test_acceptance import FIXTURES
from test_indexes import UnitAndReadyIndexes

from fedweave import engine
from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE, builtin_store
from fedweave.bundle import parse_bundle
from fedweave.charms import (DATA, FLAG, PORT, STATUS, TEMPLATE, ClearState, Fail, OpenPort,
                             SetRelationData, SetState, SetUnitStatus, compile_writes,
                             load_charm)
from fedweave.engine import (
    DEFAULT_SEED,
    Model,
    add_unit,
    deploy_bundle,
    remove_unit,
    run_to_convergence,
    set_config,
)

# Two handlers per event kind, and guards completed only by flags that
# later events set, so both the table order and redelivery matter.
TWIN_CHARM = """\
name: twin
series: [xenial]
requires:
  database: pgsql
handlers:
  - on: install
    do:
      - set-state: installed
  - on: install
    do:
      - set-status: installing
  - on: database-relation-joined
    when: [ready]
    do:
      - set-state: joined
  - on: database-relation-changed
    when: [installed]
    do:
      - set-state: ready
  - on: database-relation-changed
    when: [installed, ready]
    do:
      - set-relation-data: {endpoint: database, key: seen, value: "{remote:host}"}
  - on: start
    when: [installed, joined]
    do:
      - set-status: active
  - on: start
    when: [ready]
    do:
      - set-state: started
"""

TWIN_BUNDLE = """\
series: xenial
applications:
  moodle:
    charm: "cs:twin"
    num_units: 2
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
relations:
  - ["postgresql:db", "moodle:database"]
"""

# The fixture bundles and C04's, each once, and the twin stack.
CORPUS = list(dict.fromkeys((MOODLE_BUNDLE, SCALED_BUNDLE, *FIXTURES, TWIN_BUNDLE)))


class _PopRecorder(deque):
    """The event queue, remembering the event the last ``popleft`` took and
    its target's flags at that moment, before any handler ran."""

    popped = flags = None

    def __init__(self, queue, units: dict) -> None:
        super().__init__(queue)
        self.units = units

    def popleft(self):
        self.popped = super().popleft()
        unit = self.units.get(self.popped.target)
        self.flags = None if unit is None else frozenset(unit.states)
        return self.popped


def _actions_applied(handler) -> int:
    """The actions a run of ``handler`` applies: all of them, or those up
    to and including the first ``fail``."""
    for count, action in enumerate(handler.actions, 1):
        if isinstance(action, Fail):
            return count
    return len(handler.actions)


def _checked_step(stats: dict):
    """``engine.step``, asserting on every processed event that the
    handlers it runs equal the oracle's, pair for pair and in order, and
    that the events it re-enqueues equal the oracle's.  Each
    ``_run_handler`` call carries its handler's index and compiled writes,
    so the calls show which handlers ran, whether the event matched none,
    one or more, and how many actions each applied.  Two or more must also
    go through the seeded shuffle, which sees them in declaration order.
    ``stats`` counts steps, multi-handler steps and redeliveries, so a
    test can tell it checked something."""
    real_step = engine.step
    real_run = engine._run_handler

    def checked(model, rng_seed=None, _rng=None):
        rng = _rng if _rng is not None else random.Random(
            DEFAULT_SEED if rng_seed is None else rng_seed
        )
        if not isinstance(model.event_queue, _PopRecorder):
            model.event_queue = _PopRecorder(model.event_queue, model.units)
        queue = model.event_queue
        shuffled: list = []
        applied: list = []

        class Spy:
            def shuffle(self, matching):
                unit = model.units[queue.popped.target]
                charm = model.applications[unit.app].charm
                assert matching == matching_oracle(charm, queue.popped.kind, queue.flags), \
                    queue.popped.render()
                rng.shuffle(matching)
                shuffled.append(list(matching))

        def spy_run(model, unit, event, writes, handler_index, *rest):
            applied.append((handler_index, len(writes)))
            return real_run(model, unit, event, writes, handler_index, *rest)

        with mock.patch.object(engine, "_run_handler", spy_run):
            report = real_step(model, _rng=Spy())
        if report.event is None or report.dropped:
            assert not shuffled and not applied, report
            return report
        event, before = queue.popped, queue.flags
        unit = model.units[event.target]
        charm = model.applications[unit.app].charm
        matching = matching_oracle(charm, event.kind, before)
        assert len(shuffled) == (len(matching) > 1), report
        ran = shuffled[0] if shuffled else matching
        assert applied == [(index, _actions_applied(handler)) for index, handler in ran], \
            event.render()
        assert report.actions_applied == sum(count for _, count in applied), report
        assert report.handlers_run == len(matching), report
        stats["steps"] += 1
        stats["multi"] += len(matching) > 1
        appended = list(islice(queue, len(queue) - report.redelivered, None))
        expected = redeliver_oracle(charm, unit.id, flatten_seen(unit.seen), unit.states, before)
        assert appended == expected, event.render()
        stats["redelivered"] += len(expected)
        return report

    return checked


def _new_stats() -> dict:
    return {"steps": 0, "multi": 0, "redelivered": 0}


@pytest.fixture
def twin_store():
    store = builtin_store()
    spec, owner = load_charm(TWIN_CHARM)
    store.register_charm(spec, owner)
    return store


class TestDispatchMatchesOracle:
    @pytest.mark.parametrize(
        "bundle_text", CORPUS, ids=[f"bundle{i}" for i in range(len(CORPUS))]
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_step_agrees(self, monkeypatch, twin_store, make_inventory,
                               bundle_text, seed):
        stats = _new_stats()
        monkeypatch.setattr(engine, "step", _checked_step(stats))
        model = Model(twin_store, make_inventory(8))
        deploy_bundle(model, parse_bundle(bundle_text))
        assert run_to_convergence(model, rng_seed=seed).converged
        add_unit(model, "moodle", count=2)
        set_config(model, "postgresql", {"listen_port": 5433})
        assert run_to_convergence(model, rng_seed=seed).converged
        remove_unit(model, "moodle/0")
        assert run_to_convergence(model, rng_seed=seed).converged
        assert stats["steps"] and stats["redelivered"]

    def test_twin_stack_has_multi_handler_steps(self, monkeypatch, twin_store, make_inventory):
        stats = _new_stats()
        monkeypatch.setattr(engine, "step", _checked_step(stats))
        model = Model(twin_store, make_inventory(8))
        deploy_bundle(model, parse_bundle(TWIN_BUNDLE))
        assert run_to_convergence(model).converged
        assert stats["multi"] > 0
        assert all(model.units[u].status == "active" for u in model.unit_ids_of("moodle"))


class TestDispatchTable:
    def test_tables_follow_declaration_order(self, twin_store):
        charm = twin_store.resolve_charm("cs:twin")
        install = charm.dispatch[charm.handlers[0].on]
        assert [index for index, _ in install] == [0, 1]
        assert [handler for _, handler in install] == list(charm.handlers[:2])
        total = sum(len(pairs) for pairs in charm.dispatch.values())
        assert total == len(charm.handlers)
        assert sorted(charm.guarded_kinds) == ["installed", "joined", "ready"]
        assert {kind.render() for kind in charm.guarded_kinds["ready"]} == {
            "database-relation-joined", "database-relation-changed", "start"
        }
        assert charm.writes == tuple(compile_writes(handler.actions)
                                     for handler in charm.handlers)

    def test_writes_follow_the_actions_up_to_the_first_fail(self):
        actions = (SetState("a"), ClearState("b"), SetUnitStatus("active"), OpenPort(80),
                   SetRelationData("db", "k", "{config:x}"), SetRelationData("db", "j", "v"),
                   Fail("down"), SetState("c"))
        assert compile_writes(actions) == (
            (FLAG, "a", True, None), (FLAG, "b", False, None), (STATUS, "active", "", None),
            (PORT, 80, None, None), (TEMPLATE, "k", "{config:x}", "db"),
            (DATA, "j", "v", "db"), (STATUS, "error", "down", None))

    def test_tables_take_no_part_in_equality_or_repr(self, twin_store):
        charm = twin_store.resolve_charm("cs:twin")
        twin, _ = load_charm(TWIN_CHARM)
        assert twin == charm
        assert "dispatch" not in repr(charm)
        assert "guarded_kinds" not in repr(charm)


class DispatchCheckedIndexes(UnitAndReadyIndexes):
    """The index state machine, converging through the checked step: every
    generated add/remove/config sequence dispatches and redelivers exactly
    as the linear scans do."""

    @rule()
    def converge(self):
        with mock.patch.object(engine, "step", _checked_step(_new_stats())):
            run_to_convergence(self.model)


DispatchCheckedIndexes.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
TestDispatchCheckedIndexes = DispatchCheckedIndexes.TestCase

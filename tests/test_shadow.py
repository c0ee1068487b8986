"""C04's shadow check, scoped to what a handler can write, against the
whole-model oracle.

``engine._shadow_delta`` snapshots only the target unit's fields and its
own relation bags, re-applies the handler's compiled writes in place and
restores on a difference.  ``oracles.shadow_delta_oracle`` re-applies to a full copy
rebuilt from a checkpoint.  For every handler call they must agree, and
the scoped check must leave ``checkpoint(model)`` exactly as it was.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import settings
from hypothesis.stateful import rule
from oracles import shadow_delta_oracle
from test_acceptance import FIXTURES
from test_indexes import UnitAndReadyIndexes

from fedweave import engine
from fedweave.builtin import MOODLE_BUNDLE, SCALED_BUNDLE, builtin_store
from fedweave.bundle import parse_bundle
from fedweave.charms import EventKind, load_charm
from fedweave.engine import (
    Event,
    Model,
    add_unit,
    checkpoint,
    deploy_bundle,
    run_to_convergence,
    set_config,
    step,
)

ECHO_CHARM = """\
name: echo
series: [xenial]
requires:
  database: pgsql
handlers:
  - on: database-relation-changed
    do:
      - set-relation-data: {endpoint: database, key: k, value: "{remote:k}+"}
"""

ECHO_BUNDLE = """\
series: xenial
applications:
  echo:
    charm: "cs:echo"
    num_units: 1
  postgresql:
    charm: "cs:postgresql"
    num_units: 1
relations:
  - ["postgresql:db", "echo:database"]
"""

ECHO_REL_ID = "postgresql:db echo:database"

# The fixture bundles and C04's, each once.
CORPUS = list(dict.fromkeys((MOODLE_BUNDLE, SCALED_BUNDLE, *FIXTURES)))


def _checked_shadow_delta(calls: list[int]):
    """``engine._shadow_delta``, asserting on every call that it agrees
    with the oracle and leaves the model's checkpoint unchanged."""
    scoped = engine._shadow_delta

    def checked(model, unit, event, writes):
        before = checkpoint(model, include_inventory=True)
        expected = shadow_delta_oracle(model, unit, event, writes)
        assert checkpoint(model, include_inventory=True) == before
        got = scoped(model, unit, event, writes)
        assert got == expected, f"{writes} on {event.render()}"
        assert checkpoint(model, include_inventory=True) == before
        calls.append(got)
        return got

    return checked


def _echo_model(make_inventory) -> Model:
    store = builtin_store()
    spec, owner = load_charm(ECHO_CHARM)
    store.register_charm(spec, owner)
    model = Model(store, make_inventory())
    model.shadow_check = True
    deploy_bundle(model, parse_bundle(ECHO_BUNDLE))
    assert run_to_convergence(model).converged
    return model


def _echo_self_event(model: Model) -> None:
    """An event whose remote is the target itself: the handler reads the
    bag it writes, so re-running it appends one more "+"."""
    model.event_queue.append(
        Event(EventKind.relation_changed("database"), "echo/0", ECHO_REL_ID, "echo/0")
    )
    step(model)


class TestScopedShadowMatchesOracle:
    @pytest.mark.parametrize(
        "bundle_text", CORPUS, ids=[f"bundle{i}" for i in range(len(CORPUS))]
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_handler_call_agrees(self, monkeypatch, store, make_inventory,
                                       bundle_text, seed):
        calls: list[int] = []
        monkeypatch.setattr(engine, "_shadow_delta", _checked_shadow_delta(calls))
        model = Model(store, make_inventory(8))
        model.shadow_check = True
        deploy_bundle(model, parse_bundle(bundle_text))
        assert run_to_convergence(model, rng_seed=seed).converged
        add_unit(model, "moodle", count=2)
        set_config(model, "postgresql", {"listen_port": 5433})
        assert run_to_convergence(model, rng_seed=seed).converged
        assert calls and not any(calls)
        assert model.shadow_deltas == 0

    def test_a_delta_agrees_too(self, monkeypatch, make_inventory):
        calls: list[int] = []
        monkeypatch.setattr(engine, "_shadow_delta", _checked_shadow_delta(calls))
        model = _echo_model(make_inventory)
        _echo_self_event(model)
        assert calls[-1] == 1


class TestDetectorFires:
    def test_self_reading_handler_is_caught_and_restored(self, make_inventory):
        model = _echo_model(make_inventory)
        assert model.shadow_deltas == 0
        assert model.relations[ECHO_REL_ID].data["echo/0"] == {"k": "+"}

        _echo_self_event(model)
        assert model.shadow_deltas == 1
        # What the handler wrote, not the re-application's "+++".
        assert model.relations[ECHO_REL_ID].data["echo/0"] == {"k": "++"}


class ShadowCheckedIndexes(UnitAndReadyIndexes):
    """The index state machine, converging with the shadow check on: every
    generated add/remove/config sequence re-applies idempotently, and the
    scoped check agrees with the oracle on each handler call."""

    @rule()
    def converge(self):
        self.model.shadow_check = True  # a checkpoint round trip resets it
        calls: list[int] = []
        with mock.patch.object(engine, "_shadow_delta", _checked_shadow_delta(calls)):
            run_to_convergence(self.model)
        assert self.model.shadow_deltas == 0


ShadowCheckedIndexes.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
TestShadowCheckedIndexes = ShadowCheckedIndexes.TestCase

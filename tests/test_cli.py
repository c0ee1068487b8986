"""End-to-end tests for the command-line front end.

Every test drives ``run_command`` directly (no subprocess) against a
throwaway workspace directory, checking printed output, exit codes, and
that state survives from one invocation to the next.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest
import yaml

from fedweave import builtin, cli
from fedweave.charms import CharmError, CharmStore, load_charm
from fedweave.cli import _locked, run_command
from fedweave.engine import (
    Model,
    add_unit,
    deploy_bundle,
    remove_unit,
    run_to_convergence,
    state_hash,
)
from fedweave.plan import compile_plan


def reported_hash(out: str) -> str:
    lines = [line for line in out.splitlines() if line.startswith("state hash: ")]
    assert lines, f"no state hash in output:\n{out}"
    return lines[-1].removeprefix("state hash: ")


@pytest.fixture
def invoke(tmp_path, capsys):
    """Run one CLI invocation against this test's workspace."""

    def _invoke(*argv: str) -> tuple[int, str, str]:
        code = run_command(["-w", str(tmp_path), *argv])
        out, err = capsys.readouterr()
        return code, out, err

    return _invoke


@pytest.fixture
def demo(invoke):
    """An initialised demo workspace with four idle machines."""
    invoke("init", "--demo")
    invoke("machine", "add-zone", "garr-01", "az1")
    code, _, err = invoke(
        "machine", "enlist", "--zone", "garr-01/az1",
        "--cores", "4", "--mem", "8192", "--disk", "102400", "-n", "4",
    )
    assert code == 0, err
    return invoke


@pytest.fixture
def moodle_hash(store, make_inventory, moodle_bundle):
    """The canonical state hash of the converged demo deployment."""
    model = Model(store, make_inventory())
    deploy_bundle(model, moodle_bundle)
    run_to_convergence(model)
    return state_hash(model)


class TestWorkspace:
    def test_init(self, invoke, tmp_path):
        code, out, _ = invoke("init")
        assert code == 0
        assert out == f"initialised {tmp_path}\n"
        assert (tmp_path / "inventory.yaml").exists()
        assert (tmp_path / "charms").is_dir()

    def test_init_demo_writes_charms_and_bundles(self, invoke, tmp_path):
        code, out, _ = invoke("init", "--demo")
        assert code == 0
        assert "with demo charms and bundles" in out
        for name in ("moodle", "postgresql", "haproxy"):
            assert (tmp_path / "charms" / f"{name}.yaml").exists()
        assert (tmp_path / "moodle-bundle.yaml").exists()
        assert (tmp_path / "scaled-bundle.yaml").exists()

    def test_init_twice_fails(self, invoke):
        invoke("init")
        code, _, err = invoke("init")
        assert code == 1
        assert "already initialised" in err

    def test_commands_require_init(self, invoke):
        code, _, err = invoke("machine", "list")
        assert code == 1
        assert "not an initialised workspace" in err
        assert "fedweave init" in err

    def test_lock_rejects_second_invocation(self, invoke, tmp_path):
        invoke("init")
        (tmp_path / ".fedweave-lock").touch()
        code, _, err = invoke("machine", "list")
        assert code == 1
        assert "locked by another invocation" in err

    def test_lock_names_its_holder(self, invoke, tmp_path):
        invoke("init")
        lock = tmp_path / ".fedweave-lock"
        with _locked(tmp_path):
            pid, started = lock.read_text().split()
        assert int(pid) == os.getpid()
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", started)

        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        for holder, state in (
            (child.pid, "is no longer running"),
            (os.getpid(), "is still running"),
        ):
            lock.write_text(f"{holder} 2017-05-04T10:00:00Z\n")
            code, _, err = invoke("machine", "list")
            assert code == 1
            assert "locked by another invocation" in err
            assert f"pid {holder}, started 2017-05-04T10:00:00Z, {state}" in err
            # Never removed automatically, stale or not.
            assert lock.read_text() == f"{holder} 2017-05-04T10:00:00Z\n"

    def test_lock_removed_after_run(self, invoke, tmp_path):
        invoke("init")
        code, _, _ = invoke("machine", "list")
        assert code == 0
        assert not (tmp_path / ".fedweave-lock").exists()

    def test_workspace_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDWEAVE_WORKSPACE", str(tmp_path))
        assert run_command(["init"]) == 0
        capsys.readouterr()
        assert (tmp_path / "inventory.yaml").exists()

    def test_flag_overrides_environment(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        flag_dir.mkdir()
        monkeypatch.setenv("FEDWEAVE_WORKSPACE", str(env_dir))
        assert run_command(["-w", str(flag_dir), "init"]) == 0
        capsys.readouterr()
        assert (flag_dir / "inventory.yaml").exists()
        assert not (env_dir / "inventory.yaml").exists()

    def test_usage_errors_exit_2(self, capsys):
        assert run_command(["no-such-command"]) == 2
        assert run_command([]) == 2
        assert run_command(["status", "--format", "xml"]) == 2
        capsys.readouterr()


class TestValidate:
    def test_deployable_bundle(self, demo, tmp_path):
        code, out, _ = demo("validate", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 0
        assert out.strip().splitlines()[-1] == "bundle is deployable"

    def test_broken_bundle_prints_diagnostics(self, demo, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(
            "series: xenial\n"
            "applications:\n"
            "  web:\n"
            "    charm: cs:nginx\n"
            "    num_units: 1\n"
        )
        code, out, _ = demo("validate", str(path))
        assert code == 1
        assert "error:" in out
        assert "bundle is deployable" not in out

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("applications: a: b\n", "mapping values are not allowed here (line 1, column 16)"),
            ("applications:\n  a: {charm: cs:x}\n  a: {charm: cs:y}\n",
             "duplicate key 'a' (line 3, column 3)"),
            ("applications:\n\tweb: {}\n",
             "found character '\\t' that cannot start any token (line 2, column 1)"),
            ("{[a]: b}\n", "mapping key must be a scalar (line 1, column 2)"),
        ],
        ids=["syntax", "duplicate-key", "tab", "sequence-key"],
    )
    def test_malformed_bundle_is_a_one_line_error(self, demo, tmp_path, text, message):
        path = tmp_path / "malformed.yaml"
        path.write_text(text)
        code, out, err = demo("validate", str(path))
        assert (code, out, err) == (1, "", f"bundle: {message}\n")

    def test_missing_bundle_file(self, demo):
        code, _, err = demo("validate", "nowhere.yaml")
        assert code == 1
        assert "no such bundle file" in err


class TestDeploy:
    def test_deploy_converges_to_module_hash(self, demo, tmp_path, moodle_hash):
        code, out, err = demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 0, err
        assert "machine 0 -> 0" in out
        assert "unit moodle/0 on 0" in out
        assert "unit postgresql/0 on 0/lxd/0" in out
        assert "relation postgresql:db moodle:database" in out
        assert "converged after 11 events" in out
        assert reported_hash(out) == moodle_hash
        assert (tmp_path / "model.yaml").exists()

    def test_status_agrees_with_deploy(self, demo, tmp_path):
        _, deploy_out, _ = demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, status_out, _ = demo("status", "--format", "json")
        assert code == 0
        snapshot = json.loads(status_out)
        assert snapshot["state_hash"] == reported_hash(deploy_out)
        assert snapshot["units"]["moodle/0"]["status"] == "active"
        assert snapshot["units"]["postgresql/0"]["machine"] == "0/lxd/0"
        assert snapshot["pending_events"] == 0

    def test_no_converge_then_converge(self, demo, tmp_path, moodle_hash):
        code, out, _ = demo(
            "deploy", "--no-converge", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 0
        assert "converged" not in out
        _, status_out, _ = demo("status", "--format", "json")
        assert json.loads(status_out)["pending_events"] > 0

        code, out, _ = demo("converge")
        assert code == 0
        assert "converged after 11 events" in out
        assert reported_hash(out) == moodle_hash

    def test_converge_when_idle_processes_nothing(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, _ = demo("converge")
        assert code == 0
        assert "converged after 0 events" in out

    def test_redeploy_to_other_region_refused(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, _, err = demo(
            "deploy", "--region", "garr-x", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 1
        assert "model already placed on 'local'" in err

    def test_deploy_missing_bundle(self, demo):
        code, _, err = demo("deploy", "missing.yaml")
        assert code == 1
        assert "no such bundle file" in err

    def test_deploy_without_machines_fails(self, invoke, tmp_path):
        invoke("init", "--demo")
        code, _, err = invoke("deploy", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 1
        assert err.startswith("provider:")
        # the failed deployment must not leave a half-saved model behind
        assert not (tmp_path / "model.yaml").exists()


class TestMutations:
    def test_config_change_and_no_change(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, _ = demo("config", "postgresql", "listen_port=6432")
        assert code == 0
        assert "changed: listen_port" in out
        assert "converged" in out

        # the relation data was republished and persisted for the next run
        _, status_out, _ = demo("status", "--format", "json")
        snapshot = json.loads(status_out)
        bag = snapshot["relations"]["postgresql:db moodle:database"]["data"]["postgresql/0"]
        assert bag["port"] == "6432"

        code, out, _ = demo("config", "postgresql", "listen_port=6432")
        assert code == 0
        assert "no changes" in out

    def test_config_malformed_pair(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, _, err = demo("config", "postgresql", "listen_port")
        assert code == 1
        assert "expected key=value" in err

    def test_add_and_remove_unit(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, _ = demo("add-unit", "moodle", "-n", "2")
        assert code == 0
        assert "unit moodle/1 on" in out
        assert "unit moodle/2 on" in out

        code, _, _ = demo("remove-unit", "moodle/1")
        assert code == 0
        _, status_out, _ = demo("status", "--format", "json")
        units = json.loads(status_out)["units"]
        assert "moodle/1" not in units
        assert {"moodle/0", "moodle/2", "postgresql/0"} <= set(units)

    def test_leader_removed_then_converged_separately(
        self, demo, tmp_path, store, make_inventory, moodle_bundle
    ):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        demo("add-unit", "moodle", "-n", "2")
        code, _, err = demo("remove-unit", "moodle/0", "--no-converge")
        assert code == 0, err
        # The converge runs in a fresh model loaded from the workspace.
        code, out, err = demo("converge")
        assert code == 0, err
        _, status_out, _ = demo("status", "--format", "json")
        units = json.loads(status_out)["units"]
        leaders = [u for u, body in units.items() if body["leader"]]
        assert sorted(leaders) == ["moodle/1", "postgresql/0"]

        expected = Model(store, make_inventory())
        deploy_bundle(expected, moodle_bundle)
        run_to_convergence(expected)
        add_unit(expected, "moodle", count=2)
        run_to_convergence(expected)
        remove_unit(expected, "moodle/0")
        run_to_convergence(expected)
        assert reported_hash(out) == state_hash(expected)

    def test_add_unit_with_container_placement(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, _ = demo("add-unit", "moodle", "--to", "lxd:0")
        assert code == 0
        assert "unit moodle/1 on 0/lxd/1" in out

    def test_add_relation(self, demo, tmp_path):
        bundle = tmp_path / "unrelated.yaml"
        bundle.write_text(
            "series: xenial\n"
            "applications:\n"
            "  moodle:\n"
            "    charm: cs:~csd-garr/moodle\n"
            "    num_units: 1\n"
            "  haproxy:\n"
            "    charm: cs:haproxy\n"
            "    num_units: 1\n"
            "relations: []\n"
        )
        demo("deploy", str(bundle))
        code, out, _ = demo("add-relation", "haproxy:reverseproxy", "moodle:website")
        assert code == 0
        # oriented provider-first regardless of argument order
        assert "relation moodle:website haproxy:reverseproxy (http)" in out

        code, _, err = demo("add-relation", "moodle:website", "haproxy:reverseproxy")
        assert code == 1
        assert "already exists" in err

    def test_mutations_need_a_model(self, demo):
        for argv in (
            ("config", "postgresql", "listen_port=6432"),
            ("add-unit", "moodle"),
            ("remove-unit", "moodle/0"),
            ("status",),
        ):
            code, _, err = demo(*argv)
            assert code == 1
            assert "no model in this workspace" in err


def _spy_charm_parses(monkeypatch, module=cli) -> list[str]:
    """Record the text of every charm document ``module.load_charm`` parses."""
    parsed: list[str] = []
    real = module.load_charm

    def spy(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(module, "load_charm", spy)
    return parsed


def _state_files(root) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in root.iterdir() if path.is_file()}


class TestCharmFilesParsedOnFirstUse:
    """The workspace's charm files are parsed when a command first needs a
    charm, all of them once; a command that needs none parses none."""

    @pytest.fixture
    def pending(self, demo, tmp_path):
        """The scaled stack deployed without converging, so that converge
        has events to process; returns the deploy's state hash."""
        code, out, err = demo("deploy", "--no-converge", str(tmp_path / "scaled-bundle.yaml"))
        assert code == 0, err
        return reported_hash(out)

    @pytest.mark.parametrize(
        "argv", [("status",), ("status", "--format", "json"), ("plan", "dot")]
    )
    def test_reads_parse_no_charm(self, pending, demo, monkeypatch, argv):
        parsed = _spy_charm_parses(monkeypatch)
        code, _, err = demo(*argv)
        assert code == 0, err
        assert parsed == []

    @pytest.mark.parametrize(
        "argv", [("config", "haproxy", "default_timeout=45"), ("converge",)]
    )
    def test_writes_parse_each_charm_file_once(self, pending, demo, tmp_path, monkeypatch, argv):
        parsed = _spy_charm_parses(monkeypatch)
        code, out, err = demo(*argv)
        assert code == 0, err
        assert "converged after" in out
        files = sorted(path.read_text() for path in (tmp_path / "charms").glob("*.yaml"))
        assert len(files) == 3
        assert sorted(parsed) == files

    def test_builtin_and_plain_stores_are_unchanged(self, monkeypatch):
        parsed = _spy_charm_parses(monkeypatch, builtin)
        store = builtin.builtin_store()
        assert len(parsed) == 3  # when it is built
        assert store.refs() == ["cs:haproxy", "cs:postgresql", "cs:~csd-garr/moodle"]
        assert len(parsed) == 3
        plain = CharmStore()
        assert len(plain) == 0
        assert plain.refs() == []

    @pytest.mark.parametrize("breakage", ["malformed", "missing"])
    def test_broken_charm_fails_only_the_commands_that_use_it(
        self, pending, demo, tmp_path, breakage
    ):
        _, status_before, _ = demo("status", "--format", "json")
        assert json.loads(status_before)["state_hash"] == pending
        charm_file = tmp_path / "charms" / "haproxy.yaml"
        if breakage == "malformed":
            charm_file.write_text("name: [unclosed\n")
            with pytest.raises(CharmError) as parse_error:
                load_charm(charm_file.read_text())
            expected = f"charm-store: {parse_error.value}\n"
        else:
            charm_file.unlink()
            expected = "charm-store: unknown charm reference 'cs:haproxy'\n"
        files = _state_files(tmp_path)

        code, out, err = demo("status", "--format", "json")
        assert (code, out, err) == (0, status_before, "")
        for argv in (("converge",), ("config", "haproxy", "default_timeout=45")):
            code, out, err = demo(*argv)
            assert (code, err) == (1, expected), argv
            assert out == ""
        assert _state_files(tmp_path) == files

    def test_failed_add_unit_prints_no_result(self, demo, tmp_path):
        """The placement is made in memory, then convergence fails on the
        charm: nothing is saved, so no ``unit ... on ...`` line is printed."""
        code, _, err = demo("deploy", str(tmp_path / "scaled-bundle.yaml"))
        assert code == 0, err
        (tmp_path / "charms" / "haproxy.yaml").write_text("name: [unclosed\n")
        files = _state_files(tmp_path)
        code, out, err = demo("add-unit", "haproxy")
        assert code == 1
        assert err.startswith("charm-store: malformed charm document")
        assert out == ""
        assert _state_files(tmp_path) == files


class TestStatusText:
    def test_tables(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, _ = demo("status")
        assert code == 0
        assert out.startswith("state hash  ")
        assert "pending     0" in out
        for header in ("APP", "UNIT", "MACHINE", "RELATION"):
            assert header in out
        assert "moodle/0" in out
        assert "0/lxd/0" in out
        assert "active" in out


class TestPlanCommands:
    def test_compile_matches_library(self, demo, tmp_path, store, moodle_bundle):
        code, out, _ = demo("plan", "compile", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 0
        assert out == compile_plan(moodle_bundle, store).render()

    def test_compile_to_file(self, demo, tmp_path):
        target = tmp_path / "moodle.plan"
        code, out, _ = demo(
            "plan", "compile", str(tmp_path / "moodle-bundle.yaml"), "-o", str(target)
        )
        assert code == 0
        assert out == f"8 steps -> {target}\n"
        assert target.read_text().startswith("# bundle-digest: ")

    def test_execute_reaches_deploy_hash(self, demo, tmp_path, moodle_hash):
        target = tmp_path / "moodle.plan"
        demo("plan", "compile", str(tmp_path / "moodle-bundle.yaml"), "-o", str(target))
        code, out, err = demo("plan", "execute", str(target))
        assert code == 0, err
        assert "executed 8 steps" in out
        assert reported_hash(out) == moodle_hash
        # the executed model is saved and queryable like any other
        code, status_out, _ = demo("status", "--format", "json")
        assert code == 0
        assert json.loads(status_out)["state_hash"] == moodle_hash

    def test_execute_refuses_existing_model(self, demo, tmp_path):
        target = tmp_path / "moodle.plan"
        demo("plan", "compile", str(tmp_path / "moodle-bundle.yaml"), "-o", str(target))
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, _, err = demo("plan", "execute", str(target))
        assert code == 1
        assert "model already exists" in err

    def test_execute_unknown_machine_is_a_one_line_error(self, demo, tmp_path):
        target = tmp_path / "bad.plan"
        target.write_text("acquire-machine 0 series=xenial\ninstall-unit haproxy/0 cs:haproxy 7\n")
        files = _state_files(tmp_path)
        code, out, err = demo("plan", "execute", str(target))
        assert code == 1
        assert out == ""
        assert err == (
            "plan: step 1 (install-unit haproxy/0 cs:haproxy 7): unknown machine '7': "
            "no earlier step acquires or creates it\n"
        )
        assert _state_files(tmp_path) == files

    def test_execute_unbalanced_quote_is_a_one_line_error(self, demo, tmp_path):
        target = tmp_path / "bad.plan"
        target.write_text("acquire-machine 0 series=xenial constraints='mem=1\n")
        files = _state_files(tmp_path)
        code, out, err = demo("plan", "execute", str(target))
        assert (code, out) == (1, "")
        assert err == ("plan: malformed plan line "
                       "\"acquire-machine 0 series=xenial constraints='mem=1\"\n")
        assert _state_files(tmp_path) == files

    def test_execute_missing_plan_file(self, demo):
        code, _, err = demo("plan", "execute", "nowhere.plan")
        assert code == 1
        assert "no such plan file" in err

    def test_dot_from_bundle(self, demo, tmp_path):
        code, out, _ = demo("plan", "dot", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 0
        assert out.startswith("digraph deployment {")
        assert '"app:postgresql" -> "app:moodle" [label="pgsql"];' in out

    def test_dot_from_model(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, _ = demo("plan", "dot")
        assert code == 0
        assert 'label="machine 0";' in out
        assert '"unit:moodle/0"' in out


class TestMachineCommands:
    def test_add_zone_and_enlist(self, invoke):
        invoke("init")
        code, out, _ = invoke("machine", "add-zone", "garr-01", "az1")
        assert code == 0
        assert out == "zone garr-01/az1\n"
        code, out, _ = invoke(
            "machine", "enlist", "--zone", "garr-01/az1",
            "--cores", "2", "--mem", "4096", "--disk", "51200", "-n", "2",
        )
        assert code == 0
        assert out == "machine 0 (ready)\nmachine 1 (ready)\n"

    def test_enlist_malformed_zone(self, invoke):
        invoke("init")
        code, _, err = invoke(
            "machine", "enlist", "--zone", "garr-01",
            "--cores", "2", "--mem", "4096", "--disk", "51200",
        )
        assert code == 1
        assert "malformed zone" in err

    def test_enlist_unknown_zone(self, invoke):
        invoke("init")
        code, _, err = invoke(
            "machine", "enlist", "--zone", "garr-01/az1",
            "--cores", "2", "--mem", "4096", "--disk", "51200",
        )
        assert code == 1
        assert err.startswith("provider:")

    def test_list_text_and_json(self, invoke):
        invoke("init")
        invoke("machine", "add-zone", "garr-01", "az1")
        invoke(
            "machine", "enlist", "--zone", "garr-01/az1", "--cores", "2",
            "--mem", "4096", "--disk", "51200", "--tags", "ssd,gpu",
        )
        code, out, _ = invoke("machine", "list")
        assert code == 0
        assert "MACHINE" in out and "ZONE" in out
        assert "garr-01/az1" in out
        assert "gpu,ssd" in out

        code, out, _ = invoke("machine", "list", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["machines"]) == 1

    def test_list_empty(self, invoke):
        invoke("init")
        code, out, _ = invoke("machine", "list")
        assert code == 0
        assert out == "no machines\n"

    def test_release_refuses_host_with_containers(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, _, err = demo("machine", "release", "0")
        assert code == 1
        assert err.startswith("provider:")
        assert "container" in err


class TestRegionCommands:
    ENDPOINTS = (
        "compute=https://cloud.garr.it:8774/v2.1",
        "volume=https://cloud.garr.it:8776/v3",
        "image=https://cloud.garr.it:9292",
    )

    def _promote(self, invoke, name="garr-pa", machines=4):
        code, _, err = invoke("region", "register", name, *self.ENDPOINTS)
        assert code == 0, err
        code, _, err = invoke(
            "region", "enlist", name, "--cores", "4", "--mem", "8192",
            "--disk", "102400", "-n", str(machines),
        )
        assert code == 0, err
        return invoke("region", "validate", name)

    def test_lifecycle(self, invoke):
        invoke("init")
        code, out, _ = invoke("region", "register", "garr-pa", *self.ENDPOINTS)
        assert code == 0
        assert out == "region garr-pa registered (validating)\n"

        code, out, _ = invoke(
            "region", "enlist", "garr-pa", "--cores", "4", "--mem", "8192",
            "--disk", "102400",
        )
        assert code == 0
        assert out == "machine 0 in garr-pa/default\n"

        code, out, _ = invoke("region", "validate", "garr-pa")
        assert code == 0
        assert "required-services: pass" in out
        assert "endpoint-format: pass" in out
        assert "probe-acquire: pass" in out

        code, out, _ = invoke("region", "list")
        assert code == 0
        assert "production" in out

    def test_validation_failure_exits_1(self, invoke):
        invoke("init")
        invoke("region", "register", "garr-pa", *self.ENDPOINTS)
        code, out, _ = invoke("region", "validate", "garr-pa")
        assert code == 1
        assert "probe-acquire: fail" in out

    def test_reject(self, invoke):
        invoke("init")
        invoke("region", "register", "garr-pa", *self.ENDPOINTS)
        code, out, _ = invoke("region", "reject", "garr-pa")
        assert code == 0
        assert out == "region garr-pa rejected\n"

    def test_sync_and_catalog(self, invoke):
        invoke("init")
        code, out, _ = self._promote(invoke)
        assert code == 0

        code, out, _ = invoke("region", "catalog")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# master generation 1"
        assert [line.split()[1] for line in lines[1:]] == ["compute", "image", "volume"]

        code, out, _ = invoke("region", "sync", "garr-pa")
        assert code == 0
        assert out == "replica of garr-pa at generation 1\n"

        code, out, _ = invoke("region", "catalog", "garr-pa")
        assert code == 0
        assert out.splitlines()[0] == "# replica generation 1"

    def test_region_list_json(self, invoke):
        invoke("init")
        invoke("region", "register", "garr-pa", *self.ENDPOINTS)
        code, out, _ = invoke("region", "list", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["regions"]["garr-pa"]["status"] == "validating"

    def test_deploy_to_region(
        self, invoke, tmp_path, store, make_inventory, moodle_bundle
    ):
        invoke("init", "--demo")
        code, _, _ = self._promote(invoke)
        assert code == 0

        code, out, err = invoke(
            "deploy", "--region", "garr-pa", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 0, err
        # machine records carry their zone, so hash against a matching one
        expected = Model(store, make_inventory(region="garr-pa", az="default"))
        deploy_bundle(expected, moodle_bundle)
        run_to_convergence(expected)
        assert reported_hash(out) == state_hash(expected)

        # follow-up mutations load the model from the region's inventory
        code, out, _ = invoke("config", "postgresql", "listen_port=6432")
        assert code == 0
        assert "changed: listen_port" in out

        doc = yaml.safe_load((tmp_path / "model.yaml").read_text())
        assert doc["provider_ref"] == "garr-pa"

    def test_deploy_requires_production_region(self, invoke, tmp_path):
        invoke("init", "--demo")
        invoke("region", "register", "garr-pa", *self.ENDPOINTS)
        code, _, err = invoke(
            "deploy", "--region", "garr-pa", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 1
        assert err.startswith("federation:")


class TestIdentityCommands:
    def test_map_prints_and_deduplicates(self, invoke):
        invoke("init")
        code, out, _ = invoke(
            "identity", "map", "Alice@Unito.IT", "alice@unito.it", "bob@infn.it"
        )
        assert code == 0
        assert out.splitlines() == [
            "Alice@Unito.IT -> user-0000",
            "alice@unito.it -> user-0000",
            "bob@infn.it -> user-0001",
        ]

    def test_numbering_survives_invocations(self, invoke):
        invoke("init")
        invoke("identity", "map", "alice@unito.it", "bob@infn.it")
        code, out, _ = invoke("identity", "map", "carol@garr.it")
        assert code == 0
        assert out == "carol@garr.it -> user-0002\n"

    def test_malformed_eppn(self, invoke):
        invoke("init")
        code, _, err = invoke("identity", "map", "not-an-eppn")
        assert code == 1
        assert err.startswith("federation:")


class TestQuotaCommands:
    def _tree(self, run):
        """A domain with one project under it; the domain ceiling set high
        so that rule checks bite on the project, not on the root."""
        assert run("quota", "create", "garr")[0] == 0
        assert run("quota", "create", "garr/cloud")[0] == 0
        code, _, err = run(
            "quota", "set", "garr",
            "vcpus=1000", "ram=1048576", "disk=10000", "instances=1000",
        )
        assert code == 0, err

    def test_create_set_charge_release(self, invoke):
        invoke("init")
        self._tree(invoke)
        code, out, _ = invoke("quota", "set", "cloud", "vcpus=8", "ram=16384")
        assert code == 0
        assert out == "garr/cloud quota vcpus=8 ram=16384 disk=0 instances=0\n"

        code, out, _ = invoke("quota", "charge", "cloud", "vcpus=2")
        assert code == 0
        assert out == "garr/cloud usage vcpus=2 ram=0 disk=0 instances=0\n"

        code, out, _ = invoke("quota", "release", "cloud", "vcpus=2")
        assert code == 0
        assert out == "garr/cloud usage vcpus=0 ram=0 disk=0 instances=0\n"

    def test_show_tree(self, invoke):
        invoke("init")
        self._tree(invoke)
        invoke("quota", "set", "cloud", "vcpus=8")
        code, out, _ = invoke("quota", "show")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("garr  quota[")
        assert lines[1].startswith("  garr/cloud  quota[vcpus=8")

        code, out, _ = invoke("quota", "show", "--format", "json")
        assert code == 0
        assert [n["id"] for n in json.loads(out)["nodes"]] == ["garr", "garr/cloud"]

    def test_sibling_ceiling_enforced_across_invocations(self, invoke):
        invoke("init")
        self._tree(invoke)
        invoke("quota", "set", "cloud", "vcpus=100")
        invoke("quota", "create", "garr/cloud/national")
        invoke("quota", "create", "garr/cloud/international")
        assert invoke("quota", "set", "national", "vcpus=60")[0] == 0
        assert invoke("quota", "set", "international", "vcpus=40")[0] == 0
        code, _, err = invoke("quota", "set", "international", "vcpus=50")
        assert code == 1
        assert err.startswith("quota:")

    def test_unknown_component(self, invoke):
        invoke("init")
        self._tree(invoke)
        code, _, err = invoke("quota", "set", "cloud", "gpus=1")
        assert code == 1
        assert "unknown quota components" in err

    def test_roles_inherit(self, invoke):
        invoke("init")
        self._tree(invoke)
        code, out, _ = invoke("quota", "role", "cloud", "alice", "admin")
        assert code == 0
        assert out == "alice@garr/cloud: admin\n"
        invoke("quota", "create", "garr/cloud/dev")
        code, out, _ = invoke("quota", "role", "dev", "alice")
        assert code == 0
        assert out == "alice@garr/cloud/dev: admin\n"

    def test_deploy_with_project_charges_quota(self, demo, tmp_path):
        self._tree(demo)
        demo("quota", "set", "cloud", "vcpus=4", "ram=8192", "disk=100", "instances=10")
        code, _, err = demo(
            "deploy", "--project", "cloud", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 0, err

        code, out, _ = demo("quota", "show", "cloud")
        assert code == 0
        assert "usage[vcpus=1 ram=2048 disk=20 instances=2]" in out

        # unit churn is tracked in the persisted tree as well
        demo("remove-unit", "postgresql/0")
        code, out, _ = demo("quota", "show", "cloud")
        assert "usage[vcpus=1 ram=2048 disk=20 instances=1]" in out

        # the last unit releases machine 0, and with it the machine's charge
        demo("remove-unit", "moodle/0")
        code, out, _ = demo("quota", "show", "cloud")
        assert "usage[vcpus=0 ram=0 disk=0 instances=0]" in out

    def test_deploy_denied_by_quota(self, demo, tmp_path):
        self._tree(demo)
        demo("quota", "set", "cloud", "instances=1")
        code, _, err = demo(
            "deploy", "--project", "cloud", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 1
        assert err.startswith("quota:")
        assert not (tmp_path / "model.yaml").exists()

        code, out, _ = demo("quota", "show", "cloud")
        assert "usage[vcpus=0 ram=0 disk=0 instances=0]" in out

"""End-to-end tests for the command-line front end.

Every test drives ``run_command`` directly (no subprocess) against a
throwaway workspace directory, checking printed output, exit codes, and
that state survives from one invocation to the next.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedweave import builtin, cli, statefile
from fedweave.bundle import parse_bundle
from fedweave.charms import CharmError, CharmStore, load_charm
from fedweave.cli import _locked, run_command
from fedweave.engine import (
    Model,
    add_unit,
    deploy_bundle,
    remove_unit,
    run_to_convergence,
    state_hash,
    status_snapshot,
)
from fedweave.federation import Federation
from fedweave.plan import compile_plan
from fedweave.provider import Inventory
from fedweave.quota import ProjectTree

from test_entry_point import fedweave_child
from test_plan import OLD_FORMAT_MOODLE_STEPS, ZERO_UNIT_BUNDLES
from test_step import FLEET_BUNDLE, FLEET_UNITS


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
        # A file alone is no lock: the lock is held on an open file.
        (tmp_path / ".fedweave-lock").touch()
        assert invoke("machine", "list")[0] == 0
        with _locked(tmp_path):
            code, _, err = invoke("machine", "list")
        assert code == 1
        assert "locked by another invocation" in err

    def test_lock_names_its_holder(self, invoke, tmp_path, monkeypatch):
        invoke("init")
        lock = tmp_path / ".fedweave-lock"
        monkeypatch.setattr(cli, "STATUS_LOCK_WAIT", 0.1)
        with _locked(tmp_path):
            pid, started = lock.read_text().split()
            held = (f"cli: workspace {tmp_path} is locked by another invocation: pid {pid}, "
                    f"started {started}\n")
            assert invoke("machine", "list") == (1, "", held)
            # A status the seal cannot answer waits for the lock, up to its bound.
            assert invoke("status") == (1, "", held)
        assert int(pid) == os.getpid()
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", started)
        assert not lock.exists()

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

    @pytest.mark.parametrize(
        "text",
        ["a: " + "[" * 100_000 + "]" * 100_000,
         "a: " + "{b: " * 100_000 + "1" + "}" * 100_000,
         "- " * 100_000 + "a"],
        ids=["flow-sequences", "flow-mappings", "block-sequences"],
    )
    def test_deeply_nested_bundle_is_a_one_line_error(self, demo, tmp_path, text):
        # In a child: a parser that overflows the C stack would take pytest with it.
        path = tmp_path / "deep.yaml"
        path.write_text(text)
        child = fedweave_child("-w", str(tmp_path), "validate", str(path))
        assert (child.returncode, child.stdout) == (1, "")
        assert re.fullmatch(r"bundle: maximum recursion depth exceeded[^\n]*\n", child.stderr)

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
        model = (tmp_path / "model.yaml").read_bytes()
        code, out, _ = demo("converge")
        assert code == 0
        assert "converged after 0 events" in out
        assert (tmp_path / "model.yaml").read_bytes() == model

    def test_redeploy_to_other_region_refused(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, _, err = demo(
            "deploy", "--region", "garr-x", str(tmp_path / "moodle-bundle.yaml")
        )
        assert code == 1
        assert "model already placed on 'local'" in err

    def test_redeploy_with_lax_conflicts_refused(self, demo, tmp_path):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        files = _state_files(tmp_path)
        code, out, err = demo("deploy", "--lax-conflicts", str(tmp_path / "moodle-bundle.yaml"))
        assert (code, out, err) == (
            1, "",
            "cli: model already fails on write conflicts; cannot deploy with --lax-conflicts\n")
        assert _state_files(tmp_path) == files

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

    def test_add_unit_onto_an_unsupported_series_is_a_one_line_error(self, demo, tmp_path):
        code, _, err = demo("machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                            "--mem", "8192", "--disk", "102400", "--series", "bionic")
        assert code == 0, err
        code, _, err = demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 0, err
        files = _state_files(tmp_path)
        code, out, err = demo("add-unit", "moodle", "--to", "4")
        assert (code, out) == (1, "")
        assert err == "engine: charm 'moodle' does not support series 'bionic' of machine '4'\n"
        assert _state_files(tmp_path) == files

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
    """The workspace's charm store is loaded when a command first needs a
    charm: from its compiled copy when that matches the charm files, else
    by parsing each file once; a command that needs none parses none."""

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
    def test_writes_parse_each_charm_file_once(
        self, pending, demo, tmp_path, tmp_path_factory, capsys, monkeypatch, argv
    ):
        """At most once: not at all when the compiled store the deploy
        committed matches the files, and each once in a copy without it."""
        twin = tmp_path_factory.mktemp("twin")
        shutil.copytree(tmp_path, twin, dirs_exist_ok=True)
        (twin / cli.CHARM_STORE_FILE).unlink()
        files = sorted(path.read_bytes() for path in (tmp_path / "charms").glob("*.yaml"))
        assert len(files) == 3
        for root, expected in ((tmp_path, []), (twin, files)):
            parsed = _spy_charm_parses(monkeypatch)
            code = run_command(["-w", str(root), *argv])
            out, err = capsys.readouterr()
            assert code == 0, err
            assert "converged after" in out
            assert sorted(parsed) == expected
        assert (twin / cli.CHARM_STORE_FILE).read_bytes() == (
            tmp_path / cli.CHARM_STORE_FILE).read_bytes()

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


class TestHandWrittenDocuments:
    """Charm files and hand-written state parse with the bundles' strict
    loader: a malformed one fails its command with exit 1 and one line."""

    @pytest.fixture
    def deployed(self, demo, tmp_path):
        code, _, err = demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        assert code == 0, err
        return demo

    @pytest.mark.parametrize(
        ("extra", "message"),
        [("name: haproxy2\n", "duplicate key 'name' (line 25, column 1)"),
         ("[series]: x\n", "mapping key must be a scalar (line 25, column 1)")],
        ids=["duplicate-key", "sequence-key"],
    )
    @pytest.mark.parametrize(
        "argv", [("validate", "moodle-bundle.yaml"), ("add-unit", "moodle")],
        ids=["validate", "add-unit"],
    )
    def test_malformed_charm_file(self, deployed, tmp_path, monkeypatch, argv, extra, message):
        (tmp_path / "charms" / "haproxy.yaml").write_text(builtin.HAPROXY_CHARM + extra)
        files = _state_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = deployed(*argv)
        assert (code, out, err) == (1, "", f"charm-store: malformed charm document: {message}\n")
        assert _state_files(tmp_path) == files

    @pytest.mark.parametrize("counter", [1, 2])
    def test_stale_unit_counter_is_a_one_line_error(self, deployed, tmp_path, counter):
        """A ``unit_counter`` not above every unit's index would give the
        next unit a live unit's id: that unit would move to the new
        machine and leave its own machine held with no unit on it."""
        assert deployed("add-unit", "moodle", "-n", "2")[0] == 0
        doc = json.loads((tmp_path / "model.yaml").read_bytes())
        doc["model"]["applications"]["moodle"]["unit_counter"] = counter
        (tmp_path / "model.yaml").write_text(statefile.dump(doc))
        files = _state_files(tmp_path)
        assert deployed("add-unit", "moodle") == (
            1, "", f"cli: malformed model document: application 'moodle' has unit_counter "
                   f"{counter}, not above unit 'moodle/{counter}'\n")
        assert _state_files(tmp_path) == files

    @pytest.mark.parametrize("argv", [("status",), ("add-unit", "postgresql")],
                             ids=["status", "add-unit"])
    def test_unit_without_its_application_is_a_one_line_error(self, deployed, tmp_path, argv):
        """A unit whose application is gone would fail its first step with
        a traceback: the load refuses it, for a read as for a write."""
        doc = json.loads((tmp_path / "model.yaml").read_bytes())
        del doc["model"]["applications"]["moodle"]
        (tmp_path / "model.yaml").write_text(statefile.dump(doc))
        files = _state_files(tmp_path)
        assert deployed(*argv) == (
            1, "", "cli: malformed model document: unit 'moodle/0' is a unit of application "
                   "'moodle', which the model lacks\n")
        assert _state_files(tmp_path) == files

    @pytest.mark.parametrize(
        ("name", "data", "argv", "expected"),
        [
            ("charms/bad.yaml", b"name: x\n\xff\xfe\n", ("config", "moodle", "site_name=A"),
             "charm-store: malformed charm document: byte 0xff is not UTF-8: invalid start byte "
             "(line 2, column 1)"),
            ("bad-bundle.yaml", b"series: xenial\n# caf\xe9\n", ("validate", "bad-bundle.yaml"),
             "bundle: byte 0xe9 is not UTF-8: invalid continuation byte (line 2, column 6)"),
            ("inventory.yaml", b'{"zones": [], "machines": {"\xff": 1}}', ("machine", "list"),
             "provider: malformed inventory document: byte 0xff is not UTF-8: invalid start byte "
             "(line 1, column 29)"),
            ("model.yaml", b"\xc3\xa9\xff", ("status",),
             "cli: malformed model document: byte 0xff is not UTF-8: invalid start byte "
             "(line 1, column 2)"),
        ],
        ids=["charm", "bundle", "inventory", "model"],
    )
    def test_non_utf8_file_is_a_one_line_error(self, deployed, tmp_path, monkeypatch, name, data,
                                               argv, expected):
        (tmp_path / name).write_bytes(data)
        files = _state_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert deployed(*argv) == (1, "", f"{expected}\n")
        assert _state_files(tmp_path) == files

    def test_non_utf8_plan_is_a_one_line_error(self, demo, tmp_path):
        (tmp_path / "bad.plan").write_bytes(b"# charm-digest: x\n\x80\n")
        assert demo("plan", "execute", str(tmp_path / "bad.plan")) == (
            1, "", "plan: malformed plan document: byte 0x80 is not UTF-8: invalid start byte "
                   "(line 2, column 1)\n")

    @pytest.mark.parametrize(
        ("name", "text", "argv", "expected"),
        [
            ("inventory.yaml", "zones:\n  - {region: garr-01, az: az1}\nzones: []\n",
             ("machine", "list"),
             "provider: malformed inventory document: duplicate key 'zones' (line 3, column 1)"),
            ("federation.yaml", "[1, 2]\n", ("region", "catalog"),
             "federation: malformed federation document: not a mapping"),
            ("projects.yaml", "[1, 2]\n", ("quota", "show"),
             "quota: malformed project document: not a mapping"),
        ],
        ids=["inventory-duplicate-key", "federation-list", "projects-list"],
    )
    def test_malformed_state_file(self, invoke, tmp_path, name, text, argv, expected):
        invoke("init")
        (tmp_path / name).write_text(text)
        assert invoke(*argv) == (1, "", f"{expected}\n")

    def test_deeply_nested_json_state_file(self, invoke, tmp_path):
        invoke("init")
        (tmp_path / "inventory.yaml").write_text("[" * 100_000 + "]" * 100_000)
        child = fedweave_child("-w", str(tmp_path), "machine", "list")
        assert (child.returncode, child.stdout) == (1, "")
        assert re.fullmatch(r"provider: malformed inventory document: "
                            r"maximum recursion depth exceeded[^\n]*\n", child.stderr)


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


#: ``extra_pg_auth`` takes one rule a line, so its plan line quotes a line break.
PG_AUTH_BUNDLE = """\
series: xenial
applications:
  postgresql:
    charm: cs:postgresql
    num_units: 1
    options:
      extra_pg_auth: "host all all 10.0.0.0/8 md5\\nhost all all 192.168.0.0/16 md5"
"""


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
        assert out == f"7 steps -> {target}\n"
        assert target.read_text().startswith("# bundle-digest: ")

    @pytest.mark.parametrize(
        "text",
        [builtin.MOODLE_BUNDLE, builtin.SCALED_BUNDLE, *ZERO_UNIT_BUNDLES.values(),
         PG_AUTH_BUNDLE],
        ids=["moodle", "scaled", *(f"zero-units-{name}" for name in ZERO_UNIT_BUNDLES),
             "multi-line-option"],
    )
    def test_execute_reaches_deploy_hash(self, demo, tmp_path, store, make_inventory, text):
        deployed = Model(store, make_inventory())
        deploy_bundle(deployed, parse_bundle(text))
        run_to_convergence(deployed)
        (tmp_path / "bundle.yaml").write_text(text)
        target = tmp_path / "bundle.plan"
        demo("plan", "compile", str(tmp_path / "bundle.yaml"), "-o", str(target))
        code, out, err = demo("plan", "execute", str(target))
        assert (code, err) == (0, "")  # and so no stale-steps warning
        assert f"executed {len(compile_plan(parse_bundle(text), store).steps)} steps" in out
        assert reported_hash(out) == state_hash(deployed)
        # the executed model is saved and queryable like any other
        code, status_out, _ = demo("status", "--format", "json")
        assert code == 0
        assert json.loads(status_out)["state_hash"] == state_hash(deployed)

    def test_execute_refuses_existing_model(self, demo, tmp_path):
        target = tmp_path / "moodle.plan"
        demo("plan", "compile", str(tmp_path / "moodle-bundle.yaml"), "-o", str(target))
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, _, err = demo("plan", "execute", str(target))
        assert code == 1
        assert "model already exists" in err

    def test_execute_unknown_machine_is_a_one_line_error(self, demo, tmp_path):
        target = tmp_path / "bad.plan"
        target.write_text("acquire-machine 0 series=xenial\n"
                          "add-application haproxy cs:haproxy series=xenial\n"
                          "install-unit haproxy/0 7\n")
        files = _state_files(tmp_path)
        code, out, err = demo("plan", "execute", str(target))
        assert code == 1
        assert out == ""
        assert err == (
            "plan: step 2 (install-unit haproxy/0 7): unknown machine '7': "
            "no earlier step acquires or creates it\n"
        )
        assert _state_files(tmp_path) == files

    def test_execute_unknown_charm_is_a_one_line_error(self, demo, tmp_path):
        target = tmp_path / "bad.plan"
        for ref, message in (
            ("cs:nosuch", "unknown charm reference 'cs:nosuch'"),
            ("nosuch", "malformed charm reference 'nosuch' (want cs:[~owner/]name)"),
        ):
            target.write_text(f"add-application web {ref} series=xenial\n")
            files = _state_files(tmp_path)
            code, out, err = demo("plan", "execute", str(target))
            assert (code, out) == (1, "")
            assert err == f"plan: step 0 (add-application web {ref} series=xenial): {message}\n"
            assert _state_files(tmp_path) == files

    def test_execute_an_older_plan_text_is_a_one_line_error(self, demo, tmp_path):
        target = tmp_path / "old.plan"
        target.write_text("\n".join(OLD_FORMAT_MOODLE_STEPS) + "\n")
        files = _state_files(tmp_path)
        code, out, err = demo("plan", "execute", str(target))
        assert (code, out) == (1, "")
        assert err == "plan: malformed plan line 'install-unit moodle/0 cs:~csd-garr/moodle 0'\n"
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

    @pytest.mark.parametrize("machine", ["1", "0/lxd/0"], ids=["machine", "container"])
    def test_release_refuses_a_machine_the_model_holds(self, demo, tmp_path, machine):
        demo("deploy", str(tmp_path / "moodle-bundle.yaml"))
        code, out, err = demo("add-unit", "postgresql")
        assert (code, err) == (0, "")
        assert "unit postgresql/1 on 1\n" in out
        files = _state_files(tmp_path)
        code, out, err = demo("machine", "release", machine)
        assert (code, out, err) == (
            1, "", f"cli: machine {machine!r} is held by the model; remove its units first\n")
        assert _state_files(tmp_path) == files


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


@pytest.mark.parametrize(
    ("argv", "path", "kind"),
    [(("machine", "list"), "inventory.yaml", Inventory),
     (("region", "list"), "federation.yaml", Federation),
     (("quota", "show"), "projects.yaml", ProjectTree)],
    ids=["machine-list", "region-list", "quota-show"],
)
def test_json_listings_print_the_sort_keys_text(demo, tmp_path, argv, path, kind):
    """``machine list``, ``region list`` and ``quota show`` print their
    document's dump as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    for setup in (("machine", "enlist", "--zone", "garr-01/az1", "--cores", "2", "--mem", "4096",
                   "--disk", "51200", "--tags", "ssd,gpu"),
                  ("quota", "create", "garr"), ("quota", "create", "garr/cloud"),
                  ("quota", "set", "garr", "vcpus=64", "instances=10"),
                  ("region", "register", "garr-pa", *TestRegionCommands.ENDPOINTS)):
        assert demo(*setup)[0] == 0, setup
    dump = kind.load_yaml((tmp_path / path).read_bytes()).dump()
    assert demo(*argv, "--format", "json") == (
        0, json.dumps(dump, indent=2, sort_keys=True) + "\n", "")


# Every JSON document: strings with non-ASCII and control characters (and
# lone surrogates), ints far past 64 bits, non-finite floats, and empty and
# nested containers.
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text(st.characters(exclude_categories=())),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


def _nested(depth: int):
    document: object = {"leaf": [1.5, "x"]}
    for level in range(depth):
        document = [document] if level % 2 else {"k": document, "": {}}
    return document


class _Record(dict):
    pass


class _Rows(list):
    pass


class TestJsonText:
    """``machine list``, ``region list`` and ``quota show`` print
    ``--format json`` through ``cli._json_text``, which must give
    ``json.dumps(indent=2, sort_keys=True)`` byte for byte for a document
    with string keys, as ``status_text`` must for a model's status."""

    @settings(deadline=None, max_examples=300)
    @given(document=JSON_DOCUMENTS)
    @example(document=_nested(200))
    @example(document={"b": [], "a": {}, "\x00\u00e9\U0001f600": float("-inf")})
    @example(document=[float("nan"), float("inf"), -0.0, 2**200, True, None])
    @example(document=("a", ("b", 1), (), ["c", "d"]))
    @example(document=_Record(b=_Record(), a=[_Record(y="1", x=2), {"x": 2, "y": "1"}]))
    @example(document=_Rows(["x", "y", _Rows(["z", 1]), _Rows()]))
    def test_same_text_as_json_dumps(self, document):
        assert cli._json_text(document) == json.dumps(document, indent=2, sort_keys=True)

    def test_fleet_status(self, store, make_inventory):
        model = Model(store, make_inventory(FLEET_UNITS + 2))
        deploy_bundle(model, parse_bundle(FLEET_BUNDLE))
        run_to_convergence(model)
        snapshot = status_snapshot(model)
        text = json.dumps(snapshot, indent=2, sort_keys=True)
        assert cli._json_text(snapshot) == cli.status_text(model, snapshot["state_hash"]) == text

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"a": {1, 2}})

"""Show that the benchmark's correctness checks fire.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It deploys a small stack through the CLI, then feeds the real outputs to
the same checks the workloads use, once with the right expectations and
once with deliberately wrong ones (a unit count, a state hash, a budget
too small to converge, an identity mapping, an audit hash).  Every right
expectation must pass and every wrong one must count as a failed
operation.  Exits 1 when any check does not behave so.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run
from harness import Tally, cli_call


def main() -> int:
    run._import_program()
    from fedweave import builtin

    workdir = run.HERE / "work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    wrong: list[str] = []  # operations that must be recorded as failed
    try:
        def cli(workspace, *argv):
            result = tally.run(cli_call(str(workspace), list(argv)))
            return result, result.get("value", {}).get("out", "")

        def expect(what, problems, should_fail):
            if should_fail:
                wrong.append(what)
            tally.record(what, problems)

        deployed = {}
        for name, budget in (("ok", "10000"), ("starved", "3")):
            workspace = workdir / name
            workspace.mkdir(parents=True)
            (workspace / "stack.yaml").write_text(builtin.SCALED_BUNDLE)
            cli(workspace, "init", "--demo")
            cli(workspace, "machine", "add-zone", "garr-01", "az1")
            cli(workspace, "machine", "enlist", "--zone", "garr-01/az1", "--cores", "4",
                "--mem", "8192", "--disk", "102400", "-n", "8")
            deploy, deployed[name] = cli(workspace, "deploy", str(workspace / "stack.yaml"),
                                         "--budget", budget)
            expect(f"deploy with budget {budget}", checks.command(deploy, converge=True),
                   should_fail=name == "starved")
        workspace = workdir / "ok"
        digest = checks.reported_hash(deployed["ok"])
        _, status = cli(workspace, "status", "--format", "json")
        units = {"moodle": 1, "postgresql": 1, "haproxy": 1}
        expect("status, right counts and hash", checks.status_json(status, units, digest), False)
        expect("status, one moodle unit too many",
               checks.status_json(status, {**units, "moodle": 2}, digest), True)
        expect("status, wrong hash", checks.status_json(status, units, "0" * 64), True)
        _, text = cli(workspace, "status")
        expect("status table, right counts", checks.status_text(text, units), False)
        expect("status table, wrong count",
               checks.status_text(text, {**units, "haproxy": 3}), True)
        _, mapped = cli(workspace, "identity", "map", "a@garr.it")
        expect("identity, right user", checks.identities(mapped, {"a@garr.it": "user-0000"}),
               False)
        expect("identity, wrong user", checks.identities(mapped, {"a@garr.it": "user-0001"}),
               True)
        expect("audit, equal hashes", checks.same_hash("audit", digest, digest), False)
        expect("audit, replay hash differs", checks.same_hash("audit", digest, "f" * 64), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fired = sorted(f.split(":")[0] for f in tally.failures)
    if fired != sorted(wrong):
        print(f"selfcheck: expected failures {sorted(wrong)}, got {tally.failures}")
        return 1
    print(f"selfcheck: {tally.attempted} checked operations; the {len(wrong)} with wrong "
          f"expectations failed, the rest passed (error_rate "
          f"{tally.failed / tally.attempted:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

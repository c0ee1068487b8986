"""The three workloads: fleet-deploy, day2-ops and plan-audit.

All three are closed loops with one client: each operation starts after
the previous one has returned.  A timed run repeats the workload's
operations until the next one would end after ``--seconds``.  A traced run
does a fixed amount of work instead, so that its counts repeat exactly for
a seed: it runs the same operations twice from the same state, once plain
and once traced, and reports the difference as the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import time
from pathlib import Path

from fedweave import builtin, bundle, engine, plan, provider

import checks
import gen
from harness import Stopwatch, Tally, cli_call

SETUPS = 3  # set-ups per run; setup_s is their median
STATE_FILES = ("model.yaml", "inventory.yaml", "federation.yaml", "projects.yaml")
DAY2_TRACED_COMMANDS = 40


class Run:
    """What one workload run measured."""

    def __init__(self, workdir: Path, seed: int, seconds: int, traced: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tally = Tally()
        # reference-host seconds of each set-up, read and write, and their wall seconds
        self.samples: dict[str, list[float]] = {"setup": [], "read": [], "write": []}
        self.wall_samples: dict[str, list[float]] = {"setup": [], "read": [], "write": []}
        self.traced_s = 0.0  # traced operations, for the overhead
        self.plain_s = 0.0  # the same operations untraced
        self.state_bytes = 0
        self.sizes: dict = {}
        self.extra: dict[str, float] = {}

    def cli(self, workspace: Path, argv: list[str], converge: bool = False,
            traced: bool = False) -> tuple[dict, list[str]]:
        """Run one command in a fresh process and apply the generic checks."""
        result = self.tally.run(cli_call(str(workspace), argv), traced)
        return result, checks.command(result, converge)

    def sample(self, klass: str, seconds: float, wall: float) -> None:
        self.samples[klass].append(seconds)
        self.wall_samples[klass].append(wall)


def closed_loop(seconds: float, items, run_one, min_items: int = 1) -> None:
    """Run ``items`` one after another; start the next only while it is
    expected to end within ``seconds``, judged by the mean so far."""
    started = time.perf_counter()
    durations: list[float] = []
    for item in items:
        elapsed = time.perf_counter() - started
        if len(durations) >= min_items and elapsed + statistics.fmean(durations) > seconds:
            break
        begun = time.perf_counter()
        run_one(item)
        durations.append(time.perf_counter() - begun)


def state_size(workspace: Path) -> int:
    return sum((workspace / name).stat().st_size
               for name in STATE_FILES if (workspace / name).exists())


def _setup(run: Run, workspace: Path, steps: list[tuple[list[str], bool]],
           files: dict[str, str]) -> None:
    """Build one workspace through the CLI; its set-up time is the time
    of the commands."""
    workspace.mkdir(parents=True)
    for name, text in files.items():
        (workspace / name).write_text(text)
    seconds = wall = 0.0
    for argv, converge in steps:
        result, problems = run.cli(workspace, argv, converge, run.traced)
        run.tally.record(f"setup {' '.join(argv[:2])}", problems)
        if "value" in result:
            seconds += result["value"]["s"]
            wall += result["value"]["wall_s"]
    run.sample("setup", seconds, wall)


# ---------------------------------------------------------------------------
# fleet-deploy


def fleet_deploy(run: Run) -> None:
    spec = gen.fleet(run.seed)
    run.sizes = {"units": spec["units"], "pool": sum(c["count"] for c in spec["pool"])}
    files = {"fleet.yaml": spec["bundle"]}
    template = run.workdir / "fleet-template"
    for index in range(1 if run.traced else SETUPS):
        workspace = run.workdir / f"fleet-setup-{index}"
        _setup(run, workspace, _fleet_setup_steps(spec), files)
        if index == 0:
            shutil.copytree(workspace, template)
        shutil.rmtree(workspace)

    hashes: list[str | None] = []

    def cycle(traced: bool) -> float:
        workspace = run.workdir / f"fleet-{len(hashes)}"
        shutil.copytree(template, workspace)
        deploy, problems = run.cli(
            workspace,
            ["deploy", str(workspace / "fleet.yaml"), "--project", spec["project"],
             "--budget", str(spec["budget"])],
            converge=True, traced=traced)
        out = deploy.get("value", {}).get("out", "")
        digest = checks.reported_hash(out)
        hashes.append(digest)
        placed = sum(1 for line in out.splitlines() if line.startswith("unit "))
        if placed != sum(spec["units"].values()):
            problems.append(f"deploy placed {placed} units")
        run.tally.record("deploy", problems)
        status, problems = run.cli(workspace, ["status", "--format", "json"], traced=traced)
        if not problems:
            problems = checks.status_json(status["value"]["out"], spec["units"], digest)
        run.tally.record("status", problems)
        if not run.state_bytes:
            run.state_bytes = state_size(workspace)
        shutil.rmtree(workspace)
        timed = [(klass, r["value"]) for klass, r in (("write", deploy), ("read", status))
                 if "value" in r]
        for klass, value in timed:
            run.sample(klass, value["s"], value["wall_s"])
        return sum(value["s"] for _, value in timed)

    if run.traced:
        run.plain_s = cycle(traced=False)
        run.traced_s = cycle(traced=True)
    else:
        closed_loop(run.seconds, itertools.repeat(False), cycle, min_items=2)

    reference = run.tally.run(_fleet_reference(spec, template / "inventory.yaml"))
    problems = checks.crashed(reference)
    if not problems:
        want = reference["value"]
        if not want["converged"]:
            problems.append("plan replay did not converge")
        for digest in hashes:
            problems += checks.same_hash("fleet deploy vs plan replay", digest, want["hash"])
    run.tally.record("plan replay of the fleet", problems)
    for name, klass in (("deploy_s", "write"), ("fleet_status_s", "read")):
        run.extra[name] = statistics.median(run.samples[klass]) if run.samples[klass] else 0.0


def _fleet_setup_steps(spec: dict) -> list[tuple[list[str], bool]]:
    """Enlist the pool into a local zone, and create the project with quotas."""
    region, az = spec["zone"].split("/")
    steps = [(["init", "--demo"], False), (["machine", "add-zone", region, az], False)]
    for shape in spec["pool"]:
        steps.append((["machine", "enlist", "--zone", spec["zone"], "--cores", str(shape["cores"]),
                       "--mem", str(shape["mem"]), "--disk", str(shape["disk"]),
                       "-n", str(shape["count"])], False))
    for path in ("garr", spec["project"]):
        steps.append((["quota", "create", path], False))
    for path in ("garr", spec["project"]):
        steps.append((["quota", "set", path, "vcpus=100000", "ram=100000000",
                       "disk=10000000", "instances=10000"], False))
    return steps


def _fleet_reference(spec: dict, inventory_path: Path):
    """A child function: the hash of execute_plan(compile_plan(bundle)) on
    a copy of the pool the fleet was deployed onto."""

    def replay() -> dict:
        store = builtin.builtin_store()
        inventory = provider.Inventory.load_yaml(inventory_path.read_text())
        compiled = plan.compile_plan(bundle.parse_bundle(spec["bundle"]), store)
        model = plan.execute_plan(compiled, inventory, store, budget=spec["budget"])
        return {"hash": engine.state_hash(model), "converged": model.converged}

    return replay


# ---------------------------------------------------------------------------
# day2-ops


def day2_ops(run: Run) -> None:
    spec = gen.day2(run.seed)
    run.sizes = {"units": spec["units"], "pool": sum(c["count"] for c in spec["pool"])}
    files = {"stack.yaml": spec["bundle"]}
    for index in range(1 if run.traced else SETUPS):
        workspace = run.workdir / f"day2-{index}"
        _setup(run, workspace, _day2_setup_steps(spec, workspace / "stack.yaml"), files)
    workspace = run.workdir / "day2-0"
    run.state_bytes = state_size(workspace)
    status, problems = run.cli(workspace, ["status", "--format", "json"])
    if not problems:
        problems = checks.status_json(status["value"]["out"], spec["units"])
    run.tally.record("status after set-up", problems)

    def command(cmd: dict, target: Path = workspace, traced: bool = False) -> float:
        result, problems = run.cli(target, cmd["argv"], cmd.get("converge", False), traced)
        if not problems:
            problems = checks.day2_output(cmd, result["value"]["out"])
        run.tally.record(" ".join(cmd["argv"][:2]), problems)
        if "value" not in result:
            return 0.0
        run.sample(cmd["klass"], result["value"]["s"], result["value"]["wall_s"])
        return result["value"]["s"]

    if run.traced:
        twin = run.workdir / "day2-traced"
        shutil.copytree(workspace, twin)
        prefix = spec["commands"][:DAY2_TRACED_COMMANDS]
        run.plain_s = sum(command(cmd) for cmd in prefix)
        run.traced_s = sum(command(cmd, twin, traced=True) for cmd in prefix)
    else:
        closed_loop(run.seconds, spec["commands"], command)


def _day2_setup_steps(spec: dict, bundle_path: Path) -> list[tuple[list[str], bool]]:
    """Register, enlist, validate and sync a region, create a project with
    quotas, and deploy the stack onto the region, charged to the project."""
    region = spec["region"]
    steps = [(["init", "--demo"], False),
             (["region", "register", region,
               *(f"{k}={v}" for k, v in spec["endpoints"].items())], False)]
    for shape in spec["pool"]:
        steps.append((["region", "enlist", region, "--az", "az1", "--cores", str(shape["cores"]),
                       "--mem", str(shape["mem"]), "--disk", str(shape["disk"]),
                       "-n", str(shape["count"])], False))
    steps += [(["region", "validate", region], False), (["region", "sync", region], False),
              (["quota", "create", "garr"], False), (["quota", "create", spec["project"]], False)]
    for path in ("garr", spec["project"]):
        steps.append((["quota", "set", path, "vcpus=1000", "ram=1000000",
                       "disk=100000", "instances=1000"], False))
    steps.append((["deploy", str(bundle_path), "--region", region, "--project", spec["project"],
                   "--budget", str(spec["budget"])], True))
    return steps


# ---------------------------------------------------------------------------
# plan-audit


def plan_audit(run: Run) -> None:
    corpus = store = None
    for _ in range(SETUPS):
        watch = Stopwatch()
        corpus = gen.audit_corpus(run.seed)
        store = builtin.builtin_store()
        wall, seconds = watch.lap()
        watch.stop()
        run.sample("setup", seconds, wall)
    run.sizes = {"bundles": len(corpus),
                 "units": sum(sum(entry["units"].values()) for entry in corpus)}
    checkpoint_bytes: list[int] = []

    def audit_pass(traced: bool = False) -> float:
        total = 0.0
        for index, entry in enumerate(corpus):
            result = run.tally.run(_audit(entry, store), traced)
            if "error" in result:
                run.tally.record(f"audit bundle {index}", checks.crashed(result))
                continue
            value = result["value"]
            run.tally.record(f"audit bundle {index}", value["problems"])
            run.sample("read", value["read_s"], value["read_wall_s"])
            run.sample("write", value["write_s"], value["write_wall_s"])
            checkpoint_bytes.append(value["checkpoint_bytes"])
            total += value["read_s"] + value["write_s"]
        return total

    if run.traced:
        run.plain_s = audit_pass()
        run.traced_s = audit_pass(traced=True)
    else:
        closed_loop(run.seconds, itertools.repeat(False), audit_pass)
    run.state_bytes = statistics.fmean(checkpoint_bytes) if checkpoint_bytes else 0
    busy = sum(run.samples["read"]) + sum(run.samples["write"])
    run.extra["audit_bundles_per_s"] = len(run.samples["write"]) / busy if busy else 0.0


def _audit(entry: dict, store):
    """A child function: audit one bundle as a user's CI would.

    Read: parse the bundle, compile it, and round-trip the plan through its
    text form.  Write: replay the plan on a fresh copy of the pool, then
    deploy the bundle reactively with shadow checking, step it halfway,
    checkpoint it through JSON, reload it and converge it.  The checks
    are C04 (no shadow deltas), C05 and C06 (both hashes equal)."""

    def audit() -> dict:
        problems = []
        watch = Stopwatch()
        parsed = bundle.parse_bundle(entry["bundle"])
        compiled = plan.compile_plan(parsed, store)
        reparsed = plan.parse_plan(compiled.render())
        read_wall, read_s = watch.lap()
        if reparsed != compiled:
            problems.append("plan text round trip changed the plan")

        budget = 200 * sum(entry["units"].values())
        replayed = plan.execute_plan(reparsed, provider.Inventory.load(entry["pool"]), store,
                                     budget=budget)
        replay_hash = engine.state_hash(replayed)
        model = engine.Model(store, provider.Inventory.load(entry["pool"]))
        model.shadow_check = True
        engine.deploy_bundle(model, parsed)
        for _ in range(replayed.generation // 2):
            engine.step(model)
        saved = json.dumps(engine.checkpoint(model))
        resumed = engine.load_checkpoint(json.loads(saved), store)
        resumed.shadow_check = True
        outcome = engine.run_to_convergence(resumed, budget=budget)
        reactive_hash = engine.state_hash(resumed)
        write_wall, write_s = watch.lap()
        watch.stop()

        if not replayed.converged:
            problems.append("plan replay did not converge")
        if not outcome.converged:
            problems.append(f"reactive deploy {outcome.outcome}")
        deltas = model.shadow_deltas + resumed.shadow_deltas
        if deltas:
            problems.append(f"{deltas} shadow deltas")
        problems += checks.same_hash("reactive vs replay", reactive_hash, replay_hash)
        return {"read_s": read_s, "read_wall_s": read_wall, "write_s": write_s,
                "write_wall_s": write_wall, "checkpoint_bytes": len(saved), "problems": problems}

    return audit


WORKLOADS = {
    "fleet-deploy": fleet_deploy,
    "day2-ops": day2_ops,
    "plan-audit": plan_audit,
}

"""Correctness checks on every operation's output.

Each check returns a list of problems; an empty list means the output is
what the benchmark's own expectations say it must be.  The expectations
come from the generators, never from the program under test.
"""

from __future__ import annotations

import json
import re
from collections import Counter

_CONVERGED_RE = re.compile(r"^converged after \d+ events$", re.M)
_HASH_RE = re.compile(r"^state hash: ([0-9a-f]{64})$", re.M)


def crashed(result: dict) -> list[str]:
    """An operation that raised, or whose process died, failed."""
    if "error" in result:
        return [f"crashed: {result['error'].strip().splitlines()[-1]}"]
    return []


def command(result: dict, converge: bool = False) -> list[str]:
    """The command ran, exited 0 and, when it converges, converged.

    ``deploy`` and friends exit 0 even when the budget ran out, so the
    printed outcome is checked, not the exit code alone."""
    if "error" in result:
        return crashed(result)
    value = result["value"]
    problems = []
    if value["rc"] != 0:
        problems.append(f"exit {value['rc']}: {value['err'].strip()}")
    if converge:
        if "budget-exhausted" in value["out"]:
            problems.append("budget exhausted before convergence")
        elif not _CONVERGED_RE.search(value["out"]):
            problems.append("no convergence reported")
    return problems


def reported_hash(out: str) -> str | None:
    found = _HASH_RE.findall(out)
    return found[-1] if found else None


def same_hash(label: str, got: str | None, want: str | None) -> list[str]:
    if got is None or got != want:
        return [f"{label} hash {str(got)[:12]} != expected {str(want)[:12]}"]
    return []


def status_json(out: str, units: dict[str, int], state_hash: str | None = None) -> list[str]:
    """Unit counts per application match, every unit is active, nothing
    is pending, every moodle unit reports its database connection, and the
    state hash is ``state_hash`` when one is given."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"status is not JSON: {exc}"]
    problems = []
    if state_hash is not None:
        problems += same_hash("status", doc["state_hash"], state_hash)
    counts = dict(Counter(unit["application"] for unit in doc["units"].values()))
    if counts != units:
        problems.append(f"unit counts {counts} != expected {units}")
    inactive = sorted(uid for uid, unit in doc["units"].items() if unit["status"] != "active")
    if inactive:
        problems.append(f"{len(inactive)} units not active, e.g. {inactive[0]}")
    if doc["pending_events"]:
        problems.append(f"{doc['pending_events']} events still pending")
    for relation in doc["relations"].values():
        if relation["interface"] != "pgsql":
            continue
        missing = [uid for uid, bag in relation["data"].items()
                   if uid.startswith("moodle/") and "connected" not in bag]
        if missing:
            problems.append(f"{len(missing)} moodle bags lack 'connected', e.g. {missing[0]}")
    return problems


def status_text(out: str, units: dict[str, int]) -> list[str]:
    """The APP table of ``fedweave status`` lists the expected unit counts."""
    counts = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in units and fields[4].isdigit():
            counts[fields[0]] = int(fields[4])
    if counts != units:
        return [f"status table counts {counts} != expected {units}"]
    return []


def quota_instances(out: str, project: str, instances: int) -> list[str]:
    """The project's ``instances`` usage equals the units deployed."""
    match = re.search(rf"^\s*{re.escape(project)}\s.*usage\[.*instances=(\d+)\]", out, re.M)
    if match is None or int(match.group(1)) != instances:
        return [f"{project} instance usage {match and match.group(1)} != {instances}"]
    return []


def catalog(out: str, region: str, entries: int) -> list[str]:
    lines = [line.split() for line in out.splitlines() if not line.startswith("#")]
    if len(lines) != entries or any(line[0] != region for line in lines):
        return [f"catalog {lines} != {entries} entries of {region}"]
    return []


def identities(out: str, mapping: dict[str, str]) -> list[str]:
    got = dict(line.split(" -> ") for line in out.splitlines() if " -> " in line)
    if got != mapping:
        return [f"identity map {got} != expected {mapping}"]
    return []


def config(out: str, changed: list[str]) -> list[str]:
    want = f"changed: {', '.join(changed)}" if changed else "no changes"
    if want not in out.splitlines():
        return [f"config did not report {want!r}"]
    return []


def added_unit(out: str, unit: str) -> list[str]:
    if not re.search(rf"^unit {re.escape(unit)} on \S+$", out, re.M):
        return [f"add-unit did not create {unit}"]
    return []


def day2_output(cmd: dict, out: str) -> list[str]:
    """The check a generated day-2 command names, applied to its output."""
    kind = cmd["check"]
    if kind == "status-json":
        return status_json(out, cmd["units"])
    if kind == "status-text":
        return status_text(out, cmd["units"])
    if kind == "quota":
        return quota_instances(out, cmd["project"], cmd["instances"])
    if kind == "catalog":
        return catalog(out, cmd["region"], cmd["entries"])
    if kind == "identity":
        return identities(out, cmd["map"])
    if kind == "config":
        return config(out, cmd["changed"])
    if kind == "add-unit":
        return added_unit(out, cmd["unit"])
    return []

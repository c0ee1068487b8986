"""Seeded input generators for the three workloads.

Every generator takes the workload seed and returns plain data: bundle
texts, machine pools and CLI argument lists.  The program under test sees
only these inputs.  Sizes are fixed; the seed changes machine shapes,
placements, option values and command order, so that runs with different
seeds do the same amount of work and can be compared.
"""

from __future__ import annotations

import math
import random

import yaml

CHARMS = {
    "moodle": "cs:~csd-garr/moodle",
    "postgresql": "cs:postgresql",
    "haproxy": "cs:haproxy",
}
RELATIONS = (("postgresql:db", "moodle:database"), ("haproxy:reverseproxy", "moodle:website"))

FLEET_MOODLE = 600
POOL_FACTOR = 1.25
FLEET_HOSTS = 3  # constrained machines that carry the lxd containers

DAY2_MACHINES = 80
DAY2_MOODLE = 26  # plus 2 postgresql and 2 haproxy: a 30-unit stack
DAY2_COMMANDS = 1200  # longer than any run consumes
DAY2_BUDGET = 5000  # events per converging command
DAY2_PROJECT = "garr/elearning"

AUDIT_BUNDLES = 40
AUDIT_MIN_UNITS, AUDIT_MAX_UNITS = 3, 30

BIG = {"cores": 8, "mem": 16384, "disk": 102400}
MEM_CHOICES = (2048, 4096, 8192, 16384)
DISK_CHOICES = (20480, 40960, 102400)
CORE_CHOICES = (2, 4, 8)


def _machine_classes(
    rng: random.Random, total: int, n_classes: int, hosts: int = 0
) -> list[dict]:
    """``total`` machines split evenly over ``n_classes`` seeded shapes, plus
    ``hosts`` more of the BIG shape, which satisfies every constrained host."""
    big = dict(BIG)
    classes = [big]
    while len(classes) < n_classes:
        shape = {
            "cores": rng.choice(CORE_CHOICES),
            "mem": rng.choice(MEM_CHOICES),
            "disk": rng.choice(DISK_CHOICES),
        }
        if shape not in classes:
            classes.append(shape)
    rng.shuffle(classes)
    for index, shape in enumerate(classes):
        shape["count"] = total // n_classes + (1 if index < total % n_classes else 0)
    big["count"] += hosts
    return classes


def _host_constraints(rng: random.Random) -> str:
    """Constraints that the BIG class always satisfies."""
    return (
        f"cpu-cores={rng.choice((1, 2, 4))} mem={rng.choice((2048, 4096, 8192))} "
        f"root-disk={rng.choice((20480, 40960))}"
    )


def _bundle_text(applications: dict, machines: dict, rng: random.Random) -> str:
    relations = [list(pair) for pair in RELATIONS]
    rng.shuffle(relations)
    doc = {
        "series": "xenial",
        "applications": applications,
        "machines": machines,
        "relations": relations,
    }
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# fleet-deploy


def fleet(seed: int) -> dict:
    """A 600-unit moodle fleet on fresh machines, with postgresql and
    haproxy in lxd containers on a few constrained hosts, and a local pool
    of about 1.25x as many machines in mixed shapes."""
    rng = random.Random(f"fleet-{seed}")
    machines = {str(i): {"constraints": _host_constraints(rng)} for i in range(FLEET_HOSTS)}
    applications = {
        "moodle": {
            "charm": CHARMS["moodle"],
            "num_units": FLEET_MOODLE,
            "options": {"site_name": f"Fleet {rng.randrange(1000)}"},
        },
        "postgresql": {
            "charm": CHARMS["postgresql"],
            "num_units": 2,
            "to": ["lxd:0", rng.choice(["lxd:0", "lxd:1"])],
            "options": {"listen_port": rng.randrange(5400, 5500)},
        },
        "haproxy": {
            "charm": CHARMS["haproxy"],
            "num_units": 2,
            "to": ["lxd:2", rng.choice(["lxd:1", "lxd:2"])],
            "expose": True,
            "options": {"default_timeout": rng.randrange(10, 120)},
        },
    }
    needed = FLEET_MOODLE + FLEET_HOSTS
    return {
        "bundle": _bundle_text(applications, machines, rng),
        "units": {"moodle": FLEET_MOODLE, "postgresql": 2, "haproxy": 2},
        "pool": _machine_classes(rng, math.ceil(needed * POOL_FACTOR), 4),
        "zone": "garr-01/az1",
        "project": "garr/fleet",
        "budget": 40 * (FLEET_MOODLE + 4),
    }


# ---------------------------------------------------------------------------
# day2-ops


def day2(seed: int) -> dict:
    """A validated region of 80 machines, a quota'd project, a 30-unit
    stack, and a stream of day-2 commands, about half reads and half small
    writes, with the expected result of each."""
    rng = random.Random(f"day2-{seed}")
    region = f"garr-{rng.choice(('ct', 'mi', 'na', 'pa'))}"
    endpoints = {
        service: f"https://{service}.{region}.cloud.garr.it:{port}/v2"
        for service, port in (("compute", 8774), ("volume", 8776), ("image", 9292))
    }
    machines = {"0": {"constraints": _host_constraints(rng)}, "1": {"constraints": _host_constraints(rng)}}
    applications = {
        "moodle": {"charm": CHARMS["moodle"], "num_units": DAY2_MOODLE},
        "postgresql": {
            "charm": CHARMS["postgresql"],
            "num_units": 2,
            "to": ["lxd:0", "lxd:0"],
            "options": {"listen_port": 5432},
        },
        "haproxy": {
            "charm": CHARMS["haproxy"],
            "num_units": 2,
            "to": ["lxd:1", "lxd:1"],
            "expose": True,
            "options": {"default_timeout": 30},
        },
    }
    units = {"moodle": DAY2_MOODLE, "postgresql": 2, "haproxy": 2}
    return {
        "region": region,
        "endpoints": endpoints,
        "pool": _machine_classes(rng, DAY2_MACHINES, 4),
        "bundle": _bundle_text(applications, machines, rng),
        "units": units,
        "project": DAY2_PROJECT,
        "budget": DAY2_BUDGET,
        "commands": _day2_commands(rng, region, units),
    }


def _day2_commands(rng: random.Random, region: str, units: dict) -> list[dict]:
    """Blocks of ten commands, five reads and five writes in seeded order.

    Every block holds one add-unit and one remove-unit, so the fleet size
    stays near its start; every other block carries the rarer postgresql
    port change, whose relation data fans out to every moodle unit.  The
    identity mapping, which touches only the federation file, is one write
    in five, so the write median lies among the writes that save the model."""
    project = DAY2_PROJECT
    moodle = list(range(units["moodle"]))
    counter = units["moodle"]
    timeout, port = 30, 5432
    identities: dict[str, str] = {}
    principals = [f"user{n:02d}@{rng.choice(('unict.it', 'unimi.it', 'garr.it'))}" for n in range(40)]
    commands: list[dict] = []
    block = 0
    while len(commands) < DAY2_COMMANDS:
        kinds = ["status", "status-json", "status-json", "quota-show", "catalog",
                 "config-haproxy", "add-unit", "remove-unit", "identity",
                 "config-postgresql" if block % 2 == 0 else "config-haproxy"]
        rng.shuffle(kinds)
        block += 1
        for kind in kinds:
            expect_units = {"moodle": len(moodle), "postgresql": units["postgresql"],
                            "haproxy": units["haproxy"]}
            if kind == "status":
                cmd = {"argv": ["status"], "check": "status-text", "units": expect_units}
            elif kind == "status-json":
                cmd = {"argv": ["status", "--format", "json"], "check": "status-json",
                       "units": expect_units}
            elif kind == "quota-show":
                cmd = {"argv": ["quota", "show", project], "check": "quota",
                       "project": project, "instances": sum(expect_units.values())}
            elif kind == "catalog":
                cmd = {"argv": ["region", "catalog"], "check": "catalog", "region": region,
                       "entries": 3}
            elif kind == "config-haproxy":
                timeout = rng.choice([t for t in range(10, 121, 5) if t != timeout])
                cmd = {"argv": ["config", "haproxy", f"default_timeout={timeout}"],
                       "check": "config", "changed": ["default_timeout"]}
            elif kind == "config-postgresql":
                port = rng.choice([p for p in range(5432, 5452) if p != port])
                cmd = {"argv": ["config", "postgresql", f"listen_port={port}"],
                       "check": "config", "changed": ["listen_port"]}
            elif kind == "add-unit":
                cmd = {"argv": ["add-unit", "moodle"], "check": "add-unit",
                       "unit": f"moodle/{counter}"}
                moodle.append(counter)
                counter += 1
            elif kind == "remove-unit":
                victim = moodle.pop(rng.randrange(len(moodle)))
                cmd = {"argv": ["remove-unit", f"moodle/{victim}"], "check": "converge"}
            else:
                chosen = rng.sample(principals, rng.choice((1, 2)))
                mapping = {}
                for eppn in chosen:
                    if eppn not in identities:
                        identities[eppn] = f"user-{len(identities):04d}"
                    mapping[eppn] = identities[eppn]
                cmd = {"argv": ["identity", "map", *chosen], "check": "identity",
                       "map": mapping}
            cmd["klass"] = "read" if kind in ("status", "status-json", "quota-show", "catalog") else "write"
            if cmd["argv"][0] in ("config", "add-unit", "remove-unit"):
                cmd["argv"] += ["--budget", str(DAY2_BUDGET)]
                cmd["converge"] = True
            commands.append(cmd)
    return commands


# ---------------------------------------------------------------------------
# plan-audit


def audit_corpus(seed: int) -> list[dict]:
    """Forty bundles of 3 to 30 units over 1 to 4 constrained machines,
    each with a heterogeneous pool of its own.

    Unit counts are spread evenly over the range, and the application mix
    and placement kinds follow from the unit count, so every seed audits
    the same amount of work; which host each placement names, the order of
    placement kinds, machine shapes and options are seeded."""
    rng = random.Random(f"audit-{seed}")
    span = AUDIT_MAX_UNITS - AUDIT_MIN_UNITS
    sizes = [AUDIT_MIN_UNITS + (span * i) // (AUDIT_BUNDLES - 1) for i in range(AUDIT_BUNDLES)]
    rng.shuffle(sizes)
    return [_audit_bundle(rng, n) for n in sizes]


def _audit_bundle(rng: random.Random, n_units: int) -> dict:
    """One audit bundle.  Its shape follows from the unit count: a host per
    eight units, and per application a third each of machine, ``lxd:`` and
    fresh placements; the seed picks hosts, order and values."""
    n_hosts = min(4, 1 + n_units // 8)
    machines = {str(i): {"constraints": _host_constraints(rng)} for i in range(n_hosts)}
    counts = {
        "postgresql": 1 + (n_units >= 12),
        "haproxy": 1 + (n_units >= 20),
    }
    counts["moodle"] = n_units - counts["postgresql"] - counts["haproxy"]
    applications = {}
    fresh = 0
    for name in ("moodle", "postgresql", "haproxy"):
        num = counts[name]
        # the first units are placed, in seeded order; the last third are fresh
        kinds = (["", "lxd:"] * num)[: num - num // 3]
        rng.shuffle(kinds)
        to = [f"{kind}{rng.randrange(n_hosts)}" for kind in kinds]
        fresh += num // 3
        body = {"charm": CHARMS[name], "num_units": num}
        if to:
            body["to"] = to
        applications[name] = body
    applications["postgresql"]["options"] = {"listen_port": rng.randrange(5400, 5500)}
    applications["haproxy"]["expose"] = rng.random() < 0.5
    needed = n_hosts + fresh
    pool = _machine_classes(rng, math.ceil(needed * POOL_FACTOR) + 2, 4, n_hosts)
    machines_doc = []
    for shape in pool:
        for _ in range(shape["count"]):
            machines_doc.append({
                "id": str(len(machines_doc)), "region": "garr-01", "az": "az1", "arch": "amd64",
                "cores": shape["cores"], "mem": shape["mem"], "disk": shape["disk"],
                "series": "xenial",
            })
    return {
        "bundle": _bundle_text(applications, machines, rng),
        "units": counts,
        "pool": {"zones": [{"region": "garr-01", "az": "az1"}], "machines": machines_doc},
    }

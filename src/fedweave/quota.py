"""Hierarchical projects with nested quota enforcement.

Projects form domain-rooted trees.  Every node carries a quota and a
usage over four components: vcpus, ram (MiB), disk (GiB) and instances.
An unset quota is zero — deny by default.

Three rules keep the tree consistent when quotas change:

(a) a new quota must cover the node's current usage,
(b) the node's quota plus its siblings' quotas must fit inside the
    parent's quota (domain roots are unbounded above), and
(c) the children's quotas must still fit inside the new quota.

Because rule (b) holds everywhere, admission is a local check: usage plus
request against the node's own quota, never a walk of the ancestors.

Roles are inherited downward: a user's effective roles on a project are
the union of direct assignments on the project and on every ancestor up
to and including the domain root, so the admin of a parent project is
admin of its subprojects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from . import statefile
from .errors import FedweaveError

COMPONENTS = ("vcpus", "ram", "disk", "instances")


class QuotaError(FedweaveError):
    module = "quota"


class UnknownProjectError(QuotaError):
    pass


class QuotaBelowUsageError(QuotaError):
    """Rule (a): the new quota would not cover current usage."""


class SiblingSumExceedsParentError(QuotaError):
    """Rule (b): siblings' quotas plus the new one overflow the parent."""


class ChildSumExceedsQuotaError(QuotaError):
    """Rule (c): the children's quotas would overflow the new quota."""


class QuotaExceededError(QuotaError):
    """A charge was attempted beyond the admitted quota."""


class ReleaseExceedsUsageError(QuotaError):
    """A release would drive usage below zero."""


@dataclass(frozen=True)
class QuotaSet:
    """A bundle of resource amounts.  Arithmetic is componentwise; the
    subtraction used for releases saturates at zero."""

    vcpus: int = 0
    ram: int = 0
    disk: int = 0
    instances: int = 0

    def __post_init__(self):
        for component in COMPONENTS:
            value = getattr(self, component)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise QuotaError(f"{component} must be a non-negative integer, got {value!r}")

    def add(self, other: "QuotaSet") -> "QuotaSet":
        return QuotaSet(*(getattr(self, c) + getattr(other, c) for c in COMPONENTS))

    def subtract(self, other: "QuotaSet") -> "QuotaSet":
        return QuotaSet(*(max(0, getattr(self, c) - getattr(other, c)) for c in COMPONENTS))

    def exceeding_components(self, bound: "QuotaSet") -> list[str]:
        return [c for c in COMPONENTS if getattr(self, c) > getattr(bound, c)]

    def as_dict(self) -> dict[str, int]:
        return {c: getattr(self, c) for c in COMPONENTS}

    @classmethod
    def from_dict(cls, doc: dict) -> "QuotaSet":
        unknown = set(doc) - set(COMPONENTS)
        if unknown:
            raise QuotaError(f"unknown quota component {sorted(unknown)[0]!r}")
        for component, amount in doc.items():
            if type(amount) is not int:
                raise TypeError(f"{component} is {amount!r}, which is not an integer")
        return cls(**doc)


ZERO = QuotaSet()


@dataclass
class ProjectNode:
    id: str  # slash-joined path from the domain root
    name: str
    domain: str
    parent: str | None  # None for domain roots
    quota: QuotaSet = ZERO
    usage: QuotaSet = ZERO
    children: list[str] = field(default_factory=list)
    roles: dict[str, set[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class AdmissionDecision:
    allowed: bool
    reason: str = ""


class ProjectTree(statefile.Document):
    """Domain-rooted project hierarchies with nested quotas and roles."""

    what = "project"
    error = QuotaError

    def __init__(self) -> None:
        self.nodes: dict[str, ProjectNode] = {}
        self.domains: list[str] = []

    # -- structure -----------------------------------------------------

    def add_domain(self, name: str) -> str:
        _check_name(name)
        if name in self.nodes:
            raise QuotaError(f"domain {name!r} already exists")
        self.nodes[name] = ProjectNode(id=name, name=name, domain=name, parent=None)
        self.domains.append(name)
        return name

    def create_project(self, name: str, parent: str) -> str:
        """Create a project under a parent project or domain root."""
        _check_name(name)
        parent_node = self._node(parent)
        project_id = f"{parent_node.id}/{name}"
        if project_id in self.nodes:
            raise QuotaError(f"project {project_id!r} already exists")
        node = ProjectNode(
            id=project_id, name=name, domain=parent_node.domain, parent=parent_node.id
        )
        self.nodes[project_id] = node
        parent_node.children.append(project_id)
        return project_id

    def _node(self, project_id: str) -> ProjectNode:
        node = self.nodes.get(project_id)
        if node is None:
            raise UnknownProjectError(f"unknown project {project_id!r}")
        return node

    def find(self, name_or_id: str) -> ProjectNode:
        """Resolve a full path, or a bare name when it is unambiguous
        (matched case-insensitively)."""
        node = self.nodes.get(name_or_id)
        if node is not None:
            return node
        wanted = name_or_id.lower()
        matches = [n for n in self.nodes.values() if n.name.lower() == wanted]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise UnknownProjectError(f"unknown project {name_or_id!r}")
        raise QuotaError(
            f"project name {name_or_id!r} is ambiguous: "
            + ", ".join(sorted(n.id for n in matches))
        )

    # -- quota rules ---------------------------------------------------

    def set_quota(self, project_id: str, quota: QuotaSet) -> None:
        node = self._node(project_id)
        over = node.usage.exceeding_components(quota)
        if over:
            raise QuotaBelowUsageError(
                f"quota for {project_id!r} would fall below usage on: " + ", ".join(over)
            )
        if node.parent is not None:
            parent = self._node(node.parent)
            over = self._total(parent.children, but=project_id).add(quota).exceeding_components(
                parent.quota)
            if over:
                raise SiblingSumExceedsParentError(
                    f"quota for {project_id!r} plus its siblings exceeds parent "
                    f"{node.parent!r} on: " + ", ".join(over)
                )
        over = self._total(node.children).exceeding_components(quota)
        if over:
            raise ChildSumExceedsQuotaError(
                f"children of {project_id!r} already hold more than the new quota on: "
                + ", ".join(over)
            )
        node.quota = quota

    def _total(self, project_ids: list[str], but: str | None = None) -> QuotaSet:
        """The sum of the quotas of ``project_ids``, leaving out ``but``."""
        return reduce(QuotaSet.add, (self.nodes[p].quota for p in project_ids if p != but), ZERO)

    def check_admission(self, project_id: str, request: QuotaSet) -> AdmissionDecision:
        """Local admission: usage + request against this node's quota."""
        node = self._node(project_id)
        over = node.usage.add(request).exceeding_components(node.quota)
        if over:
            return AdmissionDecision(False, "quota exceeded on: " + ", ".join(over))
        return AdmissionDecision(True)

    def charge(self, project_id: str, amount: QuotaSet) -> None:
        decision = self.check_admission(project_id, amount)
        if not decision.allowed:
            raise QuotaExceededError(f"cannot charge {project_id!r}: {decision.reason}")
        node = self._node(project_id)
        node.usage = node.usage.add(amount)

    def release(self, project_id: str, amount: QuotaSet) -> None:
        node = self._node(project_id)
        over = amount.exceeding_components(node.usage)
        if over:
            raise ReleaseExceedsUsageError(
                f"release from {project_id!r} exceeds usage on: " + ", ".join(over)
            )
        node.usage = node.usage.subtract(amount)

    # -- roles ---------------------------------------------------------

    def assign_role(self, project_id: str, user: str, role: str) -> None:
        node = self._node(project_id)
        node.roles.setdefault(user, set()).add(role)

    def effective_roles(self, project_id: str, user: str) -> set[str]:
        """Union of direct roles here and on every ancestor."""
        roles: set[str] = set()
        node = self._node(project_id)
        while node is not None:
            roles |= node.roles.get(user, set())
            node = self.nodes[node.parent] if node.parent is not None else None
        return roles

    # -- serialization -------------------------------------------------

    def dump(self) -> dict:
        nodes = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            nodes.append(
                {
                    "id": node.id,
                    "name": node.name,
                    "domain": node.domain,
                    "parent": node.parent,
                    "quota": node.quota.as_dict(),
                    "usage": node.usage.as_dict(),
                    "roles": {user: sorted(rs) for user, rs in sorted(node.roles.items())},
                }
            )
        return {"domains": list(self.domains), "nodes": nodes}

    @classmethod
    def load(cls, doc: dict) -> "ProjectTree":
        tree = cls()
        tree.domains = [str(d) for d in doc.get("domains") or []]
        for body in doc.get("nodes") or []:
            roles = body.get("roles") or {}
            for user, names in roles.items():
                if type(names) is not list or not all(type(name) is str for name in names):
                    raise TypeError(f"user {user!r} has roles {names!r}; want a list of strings")
            node = ProjectNode(
                id=str(body["id"]),
                name=str(body["name"]),
                domain=str(body["domain"]),
                parent=body.get("parent"),
                quota=QuotaSet.from_dict(body.get("quota") or {}),
                usage=QuotaSet.from_dict(body.get("usage") or {}),
                roles={user: set(names) for user, names in roles.items()},
            )
            tree.nodes[node.id] = node
        for node in tree.nodes.values():
            if node.parent is not None:
                parent = tree.nodes.get(node.parent)
                if parent is None:
                    raise QuotaError(f"project {node.id!r} references unknown parent")
                parent.children.append(node.id)
        for node in tree.nodes.values():
            node.children.sort()
        return tree


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name or "/" in name or name != name.strip():
        raise QuotaError(f"invalid project name {name!r}")

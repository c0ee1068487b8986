"""Multi-region federation: service catalog, region lifecycle, identity.

A candidate region registers with its service endpoints and lands in
``validating``: its endpoints live only in a validation namespace and are
invisible to the production catalog.  Validation checks that the required
service types are all present, that every endpoint is a well-formed URL,
and that a probe acquire/release round-trip succeeds against the region's
inventory.  Only when every check passes is the region promoted to
``production`` and its endpoints inserted into the master catalog.

The master catalog is authoritative; each region holds a replica that is
brought up to date by ``sync_catalog`` (append-then-sync, master to
replica, never the other way).  A monotonically increasing generation
number stamps both.

Identity is federated: external principals arrive as ePPN strings
(``user@home-org``), are normalised to lower case, and map idempotently
to locally created users in a single default domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlparse

from . import statefile
from .errors import FedweaveError
from .provider import Inventory

REGION_STATUSES = ("validating", "production", "rejected")

#: Service types a region must offer before it can be promoted.
DEFAULT_REQUIRED_SERVICES = frozenset({"compute", "volume", "image"})


class FederationError(FedweaveError):
    module = "federation"


class UnknownRegionError(FederationError):
    pass


class RegionNotProductionError(FederationError):
    pass


class IdentityError(FederationError):
    pass


@dataclass
class Region:
    name: str
    endpoints: dict[str, str]  # service type -> URL
    status: str = "validating"
    inventory: Inventory = field(default_factory=Inventory)


@dataclass(frozen=True)
class CatalogEntry:
    region: str
    service_type: str
    endpoint: str

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.region, self.service_type, self.endpoint)


@dataclass(frozen=True)
class ValidationCheck:
    check: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        verdict = "pass" if self.passed else "fail"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.check}: {verdict}{suffix}"


@dataclass(frozen=True)
class ValidationReport:
    region: str
    checks: tuple[ValidationCheck, ...]
    promoted: bool

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        lines.append(f"region {self.region}: " + ("promoted" if self.promoted else "still validating"))
        return "\n".join(lines)


class Federation(statefile.Document):
    """The federation control plane: regions, catalog, identities."""

    what = "federation"
    error = FederationError

    def __init__(self, required_services: frozenset[str] = DEFAULT_REQUIRED_SERVICES) -> None:
        self.required_services = frozenset(required_services)
        self.regions: dict[str, Region] = {}
        self.master_catalog: list[CatalogEntry] = []
        self.master_generation = 0
        # region -> (entries snapshot, generation at sync time)
        self.replicas: dict[str, tuple[list[CatalogEntry], int]] = {}
        self.default_domain = "default"
        self.identities: dict[str, str] = {}  # normalised ePPN -> user id
        self.users: dict[str, dict] = {}  # user id -> {eppn, domain}
        self._next_user = 0

    # -- region lifecycle ------------------------------------------------

    def register_region(self, name: str, endpoints: dict[str, str]) -> Region:
        """Register a candidate region.  It enters the validation namespace
        with status ``validating``; nothing shows in the master catalog."""
        if not name or not isinstance(name, str):
            raise FederationError(f"invalid region name {name!r}")
        existing = self.regions.get(name)
        if existing is not None and existing.status != "rejected":
            raise FederationError(f"region {name!r} is already registered")
        if not endpoints:
            raise FederationError(f"region {name!r} declares no endpoints")
        region = Region(name=name, endpoints={str(k): str(v) for k, v in endpoints.items()})
        self.regions[name] = region
        return region

    def validate_region(self, name: str) -> ValidationReport:
        """Run the promotion checks; promote on all-pass, else stay
        validating with the failures reported."""
        region = self._region(name)
        if region.status == "production":
            raise FederationError(f"region {name!r} is already production")
        checks = [
            self._check_required_services(region),
            self._check_endpoint_format(region),
            self._check_probe(region),
        ]
        promoted = all(check.passed for check in checks)
        if promoted:
            region.status = "production"
            for service_type in sorted(region.endpoints):
                self.master_catalog.append(
                    CatalogEntry(region.name, service_type, region.endpoints[service_type])
                )
            self.master_generation += 1
        return ValidationReport(region=name, checks=tuple(checks), promoted=promoted)

    def reject_region(self, name: str) -> None:
        region = self._region(name)
        if region.status == "production":
            raise FederationError(f"cannot reject production region {name!r}")
        region.status = "rejected"

    def _check_required_services(self, region: Region) -> ValidationCheck:
        missing = sorted(self.required_services - set(region.endpoints))
        if missing:
            return ValidationCheck(
                "required-services", False, "missing: " + ", ".join(missing)
            )
        return ValidationCheck("required-services", True)

    def _check_endpoint_format(self, region: Region) -> ValidationCheck:
        for service_type in sorted(region.endpoints):
            url = region.endpoints[service_type]
            parsed = urlparse(url)
            if parsed.scheme not in ("http", "https") or not parsed.netloc:
                return ValidationCheck(
                    "endpoint-format", False, f"{service_type}: {url!r} is not a valid URL"
                )
        return ValidationCheck("endpoint-format", True)

    def _check_probe(self, region: Region) -> ValidationCheck:
        """Acquire and release one unconstrained machine in the region's
        own inventory; proves the substrate answers."""
        from .bundle import Constraints
        from .provider import UnsatisfiableError

        try:
            record = region.inventory.acquire(Constraints())
        except UnsatisfiableError as exc:
            return ValidationCheck("probe-acquire", False, str(exc))
        region.inventory.release(record.id)
        return ValidationCheck("probe-acquire", True)

    def _region(self, name: str) -> Region:
        region = self.regions.get(name)
        if region is None:
            raise UnknownRegionError(f"unknown region {name!r}")
        return region

    def production_region(self, name: str) -> Region:
        """The region, provided it is eligible for placement scoping."""
        region = self._region(name)
        if region.status != "production":
            raise RegionNotProductionError(
                f"region {name!r} is {region.status}, not production"
            )
        return region

    def enlist_machine(self, name: str, az: str = "default", **spec) -> str:
        """Enlist a machine into a region's inventory.  Allowed while the
        region is validating (the validation namespace) or production."""
        region = self._region(name)
        if region.status == "rejected":
            raise FederationError(f"region {name!r} was rejected")
        if (name, az) not in region.inventory.zones:
            region.inventory.add_zone(name, az)
        record = region.inventory.enlist(region=name, az=az, **spec)
        return record.id

    # -- catalog ---------------------------------------------------------

    def sync_catalog(self, name: str) -> int:
        """Bring a production region's replica up to the master generation.
        Returns the replica generation after the sync."""
        region = self.production_region(name)
        self.replicas[region.name] = (list(self.master_catalog), self.master_generation)
        return self.master_generation

    def replica_catalog(self, name: str) -> tuple[list[CatalogEntry], int]:
        region = self._region(name)
        return self.replicas.get(region.name, ([], 0))

    # -- identity --------------------------------------------------------

    def map_identity(self, eppn: str) -> str:
        """Map an external principal to a local user, creating it on first
        sight.  ePPNs are normalised case-insensitively, must contain
        exactly one ``@`` and non-empty local and domain parts."""
        normalised = normalise_eppn(eppn)
        existing = self.identities.get(normalised)
        if existing is not None:
            return existing
        user_id = f"user-{self._next_user:04d}"
        self._next_user += 1
        self.identities[normalised] = user_id
        self.users[user_id] = {"eppn": normalised, "domain": self.default_domain}
        return user_id

    # -- serialization ---------------------------------------------------

    def dump(self) -> dict:
        return {
            "required_services": sorted(self.required_services),
            "default_domain": self.default_domain,
            "regions": {
                name: {
                    "endpoints": dict(sorted(region.endpoints.items())),
                    "status": region.status,
                    "inventory": region.inventory.dump(),
                }
                for name, region in sorted(self.regions.items())
            },
            "master_catalog": [list(entry.as_tuple()) for entry in self.master_catalog],
            "master_generation": self.master_generation,
            "replicas": {
                name: {
                    "entries": [list(entry.as_tuple()) for entry in entries],
                    "generation": generation,
                }
                for name, (entries, generation) in sorted(self.replicas.items())
            },
            "identities": dict(sorted(self.identities.items())),
            "users": {uid: dict(body) for uid, body in sorted(self.users.items())},
            "next_user": self._next_user,
        }

    @classmethod
    def load(cls, doc: dict) -> "Federation":
        fed = cls(frozenset(doc.get("required_services") or DEFAULT_REQUIRED_SERVICES))
        fed.default_domain = doc.get("default_domain", "default")
        for name, body in (doc.get("regions") or {}).items():
            region = Region(
                name=name,
                endpoints=dict(body.get("endpoints") or {}),
                status=body.get("status", "validating"),
                inventory=Inventory.load(body.get("inventory") or {}),
            )
            if region.status not in REGION_STATUSES:
                raise FederationError(f"region {name!r} has unknown status {region.status!r}")
            fed.regions[name] = region
        fed.master_catalog = [
            CatalogEntry(*entry) for entry in doc.get("master_catalog") or []
        ]
        fed.master_generation = int(doc.get("master_generation", 0))
        for name, body in (doc.get("replicas") or {}).items():
            fed.replicas[name] = (
                [CatalogEntry(*entry) for entry in body.get("entries") or []],
                int(body.get("generation", 0)),
            )
        fed.identities = {str(k): str(v) for k, v in (doc.get("identities") or {}).items()}
        fed.users = {str(k): dict(v) for k, v in (doc.get("users") or {}).items()}
        fed._next_user = int(doc.get("next_user", len(fed.users)))
        return fed


def normalise_eppn(eppn: str) -> str:
    if not isinstance(eppn, str):
        raise IdentityError(f"ePPN must be a string, got {type(eppn).__name__}")
    normalised = eppn.strip().lower()
    if normalised.count("@") != 1:
        raise IdentityError(f"malformed ePPN {eppn!r}: want exactly one '@'")
    local, _, domain = normalised.partition("@")
    if not local or not domain:
        raise IdentityError(f"malformed ePPN {eppn!r}: empty local or domain part")
    return normalised

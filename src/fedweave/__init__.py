"""fedweave — declarative service modelling over a simulated federated cloud.

The package is organised around a small number of cooperating parts:

``bundle``
    The declarative bundle language: applications, machines, placements,
    constraints and relations, with parsing, validation, rendering and
    lowering to the steps of a deployment, whose text a plan is.
``charms``
    Charm specifications and the charm store: event kinds, guarded hook
    handlers and the closed, idempotent hook-action language.
``provider``
    A simulated bare-metal substrate: machine enlistment, best-fit
    acquisition, containers and capacity reservations.
``engine``
    The reactive model: units, relations, the FIFO event queue and
    convergence, the one function applying lowered steps, plus
    checkpoint/restore.
``seen``
    The one form of a unit's seen events, in memory and in checkpoints:
    sorted groups, their check, and the normalizer for any other form.
``plan``
    Compilation of bundles into imperative plans, plan execution and
    DOT export of deployment topologies.
``federation``
    Multi-region service catalog with validation-gated region lifecycle,
    master/replica sync and federated identity mapping.
``quota``
    Hierarchical projects with nested quota enforcement and role
    inheritance.
``statefile``
    The one YAML reader, state-file text, the commit and derived files.
``cli``
    The ``fedweave`` command-line front end over a workspace directory.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import FedweaveError

__all__ = ["FedweaveError", "__version__"]

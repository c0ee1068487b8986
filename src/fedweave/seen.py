"""A unit's seen events, in the one form they take in memory and on disk.

``engine.Unit.seen`` holds the events a unit has processed, for
guard-triggered re-delivery, as ``engine.checkpoint`` writes them: groups
``[kind, name, payload, [remote, ...]]``, one per event kind, endpoint and
relation id, in strictly increasing order of those three fields, each with
its remotes in strictly increasing order.  A relation event is seen once
per remote unit, so a fleet unit related to 600 others holds one group of
600 remotes where the flat ``[kind, name, payload, remote]`` entries of
older checkpoints repeat three fields 600 times.

``engine.step`` adds a key by bisection and ``engine._redeliver`` bisects
to a kind's groups, so both rely on that order.  ``in_order`` checks that
groups read from a document have it, and ``normalized`` brings any other
form to it: it is the one place where seen events are sorted.
"""

from __future__ import annotations

import operator

from .errors import FedweaveError


class MalformedSeenError(FedweaveError, ValueError):
    """A checkpoint's ``seen`` holds what is not a group.  A ``ValueError``
    too, so a load reports it like any other value of the wrong shape."""

    module = "engine"


def in_order(seen) -> bool:
    """Whether ``seen`` is groups of strings in strictly increasing order,
    each with non-empty, strictly increasing remotes (a string compared
    with anything else raises, so those after a string are strings)."""
    previous = ()
    try:
        for group in seen:
            kind, name, payload, remotes = group if type(group) is list else ()
            if not (previous < (kind, name, payload)
                    and type(kind) is type(name) is type(payload) is str
                    and type(remotes) is list and remotes and type(remotes[0]) is str
                    and all(map(operator.lt, remotes, remotes[1:]))):
                return False
            previous = (kind, name, payload)
    except (TypeError, ValueError):
        return False
    return True


def normalized(unit_id: str, entries) -> list:
    """``entries`` when they are ``in_order``.  Else groups, or flat
    entries, in any order and with repeats, as sorted groups; anything
    else raises ``MalformedSeenError``."""
    if in_order(entries):
        return entries
    keys: dict[tuple, set] = {}
    try:
        for kind, name, payload, remotes in entries:
            remotes = remotes if type(remotes) is list else [remotes]
            keys.setdefault((kind, name, payload), set()).update(remotes)
        seen = [[*key, sorted(remotes)] for key, remotes in sorted(keys.items()) if remotes]
    except (TypeError, ValueError):
        seen = None  # not a group, or a field that does not sort with the others
    if not in_order(seen):
        raise MalformedSeenError(f"seen of unit {unit_id!r} is not a list of "
                                 "[kind, name, payload, [remote, ...]] groups")
    return seen

"""How a state document becomes text and back, and how it reaches disk.

The workspace files (``model.yaml``, ``inventory.yaml``,
``federation.yaml``, ``projects.yaml``) are written by the program and
read by it on every command, so they are compact JSON: stdlib ``json``
parses them about two orders of magnitude faster than PyYAML parses the
same document.  JSON is also YAML, so the historic ``.yaml`` names stay
true and any YAML reader still reads them.  ``load`` falls back to a YAML
parser for workspaces written before the switch and for documents people
write by hand (seed inventories, charm definitions).

``commit`` replaces several files of one directory as a set: after a crash
at any point, the next ``recover`` leaves every one of them old or every
one new.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable
from pathlib import Path

import yaml

# libyaml's loader when PyYAML was built with it; the pure-Python one otherwise.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: What ``load`` raises for text that is neither JSON nor YAML.
DecodeError = yaml.YAMLError


def dump(doc) -> str:
    """Serialize a state document to compact JSON.  No indentation: even
    ``indent=1`` makes a 600-unit fleet's state about 1.5 times as large."""
    return json.dumps(doc, separators=(",", ":"))


def load(text: str):
    """Parse a state document: JSON first, then YAML.

    Raises ``DecodeError`` (``yaml.YAMLError``) when the text is neither.
    """
    try:
        return json.loads(text)
    except ValueError:
        return yaml.load(text, Loader=_YAML_LOADER)


#: Names the files of a commit that is decided but maybe not yet carried out.
COMMIT_RECORD = ".fedweave-commit"


def commit(root: Path, texts: Iterable[tuple[str, str]]) -> None:
    """Replace files of ``root`` with new texts, all or nothing.

    ``texts`` yields ``(file name, text)`` pairs.  Each text is written to
    a temporary file beside its target and fsynced as it comes, so no two
    are held at once.  When there are several, their names are then written to
    ``COMMIT_RECORD``, which is fsynced together with the directory: from
    that point the commit has happened, and the renames that follow only
    carry it out.  The record is removed once the renames are durable.
    A failure before that point removes every temporary file; a failure or
    crash after it leaves the record for ``recover`` to finish.  One file
    needs no record, because its rename is atomic."""
    record = root / COMMIT_RECORD
    temps: dict[str, Path] = {}
    try:
        for name, text in texts:
            temps[name] = root / _temporary(name)
            temps[name].write_text(text)
            _fsync(temps[name])
        if len(temps) > 1:
            record.write_text(json.dumps(sorted(temps)))
            _fsync(record)
            _fsync(root)
    except BaseException:
        for path in (record, *temps.values()):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
    _rename(root, temps, recorded=len(temps) > 1)


def recover(root: Path, names) -> None:
    """Finish the commit an interrupted invocation recorded, and delete the
    temporary files of ``names`` that no record names.

    A record that does not parse was cut short while it was written, so
    none of its renames had begun: it is discarded like its files."""
    present = set(os.listdir(root))
    temps = {name: root / _temporary(name) for name in names if _temporary(name) in present}
    if COMMIT_RECORD in present:
        record = root / COMMIT_RECORD
        try:
            committed = json.loads(record.read_text())
        except ValueError:
            committed = []
        _rename(root, {name: temps.pop(name) for name in committed if name in temps},
                recorded=True)
    for path in temps.values():
        os.unlink(path)


def _rename(root: Path, temps: dict[str, Path], recorded: bool) -> None:
    """Rename each temporary file over its target; when the commit was
    recorded, make the renames durable and only then remove the record."""
    for name, tmp in temps.items():
        os.replace(tmp, root / name)
    if recorded:
        _fsync(root)
        os.unlink(root / COMMIT_RECORD)


def _temporary(name: str) -> str:
    return f".{name}.tmp"


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

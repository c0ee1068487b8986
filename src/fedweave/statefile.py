"""How a state document becomes text and back, and how it reaches disk.

The workspace files (``model.yaml``, ``inventory.yaml``,
``federation.yaml``, ``projects.yaml``) are written by the program and
read by it on every command, so they are compact JSON: stdlib ``json``
parses them about two orders of magnitude faster than PyYAML parses the
same document.  JSON is also YAML, so the historic ``.yaml`` names stay
true and any YAML reader still reads them.  ``load`` falls back to a YAML
parser for workspaces written before the switch and for documents people
write by hand (seed inventories, charm definitions).
"""

from __future__ import annotations

import contextlib
import json
import os
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


def write(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so that a reader, or a crash, sees
    either the whole old file or the whole new one: write a temporary file
    beside it, fsync it, then rename it over ``path``."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
        raise

"""How a document becomes text and back, and how state reaches disk.

This module is the one YAML reader of the package: bundles, charm files
and hand-written state parse through ``load_yaml``, which rejects
duplicate, non-scalar and merge keys with their line and column.  The
readers take a file's bytes and decode them as UTF-8 whatever the locale:
``decode`` turns a byte that is not UTF-8 into a ``DecodeError`` with its
line and column, which each caller reports as its own one-line error.

The workspace files (``model.yaml``, ``inventory.yaml``,
``federation.yaml``, ``projects.yaml``) are written by the program and
read by it on every command, so they are compact JSON: stdlib ``json``
parses them about two orders of magnitude faster than PyYAML parses the
same document.  JSON is also YAML, so the historic ``.yaml`` names stay
true and any YAML reader still reads them.  ``load`` falls back to
``load_yaml`` for workspaces written before the switch and for
hand-written state.  Their classes share ``Document``'s text methods.

``commit`` replaces several state files of one directory as a set: after
a crash at any point, the next ``recover`` leaves every one of them old
or every one new.  Derived files are not committed: ``write_derived``
writes one in place, with a SHA-256 over its text, and ``read_derived``
reads one back only when that check holds and the caller finds its
sources current, so a missing, cut short, stale, edited or old-layout
file reads as absent.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
from collections.abc import Callable, Iterable
from pathlib import Path

import yaml

from . import __version__


class DecodeError(ValueError):
    """Text that does not parse as a document: the problem, and its line
    and column (counted from 1) when the parser knows them."""

    def __init__(self, problem: str, line: int | None = None, column: int | None = None):
        self.problem, self.line, self.column = problem, line, column
        if line is not None:
            problem = f"{problem} (line {line}, column {column})"
        super().__init__(problem)


def dump(doc) -> str:
    """Serialize a state document to compact JSON.  No indentation: even
    ``indent=1`` makes a 600-unit fleet's state about 1.5 times as large."""
    return json.dumps(doc, separators=(",", ":"))


def decode(data: str | bytes) -> str:
    """``data`` read as UTF-8, or as it is when it is already text.  A byte
    sequence that is not UTF-8 raises ``DecodeError`` at the line and
    column of its first bad byte."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        raise DecodeError(f"byte 0x{data[exc.start]:02x} is not UTF-8: {exc.reason}",
                          data.count(b"\n", 0, start) + 1,
                          len(data[start:exc.start].decode("utf-8")) + 1) from None


def load(text: str | bytes):
    """Parse a state document: JSON first, then ``load_yaml``, which raises
    ``DecodeError`` when the text is neither.  Bytes are read as UTF-8."""
    text = decode(text)
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return load_yaml(text)


def load_mapping(text: str | bytes, what: str, error: type[Exception], *, yaml_only: bool = False,
                 allow_empty: bool = True) -> dict:
    """The mapping a document holds, parsed by ``load`` (``load_yaml`` when
    ``yaml_only``); an empty document holds ``{}`` when ``allow_empty``.
    Anything else raises ``error("malformed <what> document: <reason>")``,
    one line."""
    try:
        doc = load_yaml(text) if yaml_only else load(text)
    except DecodeError as exc:
        raise error(f"malformed {what} document: {exc}") from exc
    if doc is None and allow_empty:
        return {}
    if not isinstance(doc, dict):
        raise error(f"malformed {what} document: not a mapping")
    return doc


@contextlib.contextmanager
def malformed(what: str, error: type[Exception]):
    """Turn what reading a parsed document of the wrong shape raises (a
    missing key, a value of the wrong type, a number that does not parse)
    into ``error("malformed <what> document: <reason>")``, one line."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        if type(exc) is KeyError:
            reason = f"missing key {exc.args[0]!r}"
        elif isinstance(exc, (TypeError, AttributeError)):
            reason = f"a value of the wrong type ({exc})"
        else:
            reason = str(exc)
        raise error(f"malformed {what} document: {reason}") from exc


class Document:
    """A state document behind one workspace file: a subclass names the
    ``what`` and the ``error`` of its one-line load failures and defines
    ``load`` and ``dump`` over plain data."""

    what: str
    error: type[Exception]

    def dump_yaml(self) -> str:
        """The state-file text: compact JSON, which YAML readers also read."""
        return dump(self.dump())

    @classmethod
    def load_yaml(cls, text: str | bytes):
        doc = load_mapping(text, cls.what, cls.error)
        with malformed(cls.what, cls.error):
            return cls.load(doc)


# ---------------------------------------------------------------------------
# The strict YAML loader


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate and non-scalar mapping keys, and
    merge keys, whose tag no constructor of it knows.

    This pure-Python loader is the reference: what it accepts, the value it
    builds and the error it raises define how a document reads.
    ``load_yaml`` parses with libyaml when PyYAML was built with it, and
    falls back to this loader wherever the two could differ."""


def _construct_mapping(loader: _StrictLoader, node, deep: bool = False):
    mapping = {}
    for key_node, value_node in node.value:
        mark = key_node.start_mark
        if not isinstance(key_node, yaml.ScalarNode):
            raise DecodeError("mapping key must be a scalar", mark.line + 1, mark.column + 1)
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise DecodeError(f"duplicate key {key!r}", mark.line + 1, mark.column + 1)
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)

if yaml.__with_libyaml__:

    class _CStrictLoader(yaml.CSafeLoader):
        """``_StrictLoader`` with libyaml's scanner and parser."""

        yaml_constructors = _StrictLoader.yaml_constructors
else:
    _CStrictLoader = None

#: Text outside the subset where libyaml and the pure-Python parser were seen
#: to agree: anything but printable ASCII and newline (tabs, CR, BOM,
#: non-ASCII line breaks), and the indicators of tags, anchors, aliases,
#: complex keys, block scalars, directives and reserved characters.
_LIBYAML_UNSAFE = re.compile(r"[^\n -~]|[!&*?|>%@`]")

#: The most ``[``, ``{`` and ``- `` a text libyaml parses may hold.  Their
#: count bounds how deep its flow collections and one-line block sequences
#: nest, and libyaml's recursive composer overflows an 8 MiB C stack
#: (SIGSEGV) between 20,000 and 40,000 levels; nesting by indentation alone
#: takes text quadratic in the depth.  The demo and benchmark bundles and
#: charms hold at most 28.
_LIBYAML_MAX_NESTING = 10_000


def load_yaml(text: str | bytes):
    """Parse one YAML document strictly; bytes are read as UTF-8.

    libyaml parses text inside the safe subset that cannot nest deeper than
    ``_LIBYAML_MAX_NESTING``, and ``_build`` makes the value from the node
    tree it composes.  Anything else, and anything libyaml or the builder
    rejects, is parsed by ``_load_reference``, so every result and every
    error message is the reference loader's."""
    text = decode(text)
    if (_CStrictLoader is not None and not _LIBYAML_UNSAFE.search(text)
            and text.count("[") + text.count("{") + text.count("- ") <= _LIBYAML_MAX_NESTING):
        loader = _CStrictLoader(text)
        try:
            node = loader.get_single_node()
            if node is None:
                return None
            try:
                return _build(loader, node)
            except RecursionError:
                # PyYAML's constructor builds sequences without recursing,
                # so what nests too deep for the builder may still be built.
                # A construction the error cut short left its node marked.
                loader.recursive_objects.clear()
                return loader.construct_document(node)
        except (yaml.YAMLError, ValueError, RecursionError):
            pass  # the reference loader words the rejection
        finally:
            loader.dispose()
    return _load_reference(text)


_STR_TAG = yaml.resolver.BaseResolver.DEFAULT_SCALAR_TAG
_SEQ_TAG = yaml.resolver.BaseResolver.DEFAULT_SEQUENCE_TAG
_MAP_TAG = yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG


def _build(loader: _CStrictLoader, node):
    """The value ``loader.construct_document(node)`` gives, without its
    per-node bookkeeping: a string is the scalar's text, a sequence a list,
    a mapping a dict checked as ``_construct_mapping`` checks it (a failed
    check is a plain ``ValueError``: the reference loader words it), and any
    other node (a number, boolean, null or timestamp, or a key it rejects)
    is what the loader constructs.  Safe text holds no tag, anchor or
    alias, so every node is implicitly tagged and appears once."""
    tag = node.tag
    if tag == _STR_TAG:
        return node.value
    if tag == _SEQ_TAG:
        return [_build(loader, child) for child in node.value]
    if tag != _MAP_TAG:
        return loader.construct_object(node)
    mapping = {}
    for key_node, value_node in node.value:
        if key_node.tag == _STR_TAG:
            key = key_node.value
        elif isinstance(key_node, yaml.ScalarNode):
            key = loader.construct_object(key_node)
        else:
            raise ValueError("mapping key must be a scalar")
        if key in mapping:
            raise ValueError(f"duplicate key {key!r}")
        mapping[key] = _build(loader, value_node)
    return mapping


def _load_reference(text: str):
    """Parse one YAML document with the pure-Python ``_StrictLoader``."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except DecodeError:
        raise
    except yaml.reader.ReaderError as exc:
        line = text.count("\n", 0, exc.position) + 1
        column = exc.position - text.rfind("\n", 0, exc.position)
        raise DecodeError(f"unacceptable character #x{exc.character:04x}: {exc.reason}",
                          line, column) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            raise DecodeError(str(exc)) from exc
        raise DecodeError(exc.problem or str(exc), mark.line + 1, mark.column + 1) from exc
    except (ValueError, RecursionError) as exc:
        # a scalar of a type it does not build as (``2020-13-01``), or too deep a nesting
        raise DecodeError(str(exc)) from exc


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
            temps[name].write_text(text, encoding="utf-8")
            _fsync(temps[name])
        if len(temps) > 1:
            record.write_text(json.dumps(sorted(temps)), encoding="utf-8")
            _fsync(record)
            _fsync(root)
    except BaseException:
        for path in (record, *temps.values()):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
    _rename(root, temps, recorded=len(temps) > 1)


def recover(root: Path, names) -> None:
    """Finish the commit an interrupted invocation recorded, renaming every
    temporary file its record names, and delete the temporary files of
    ``names`` that no record names.

    A record that does not parse was cut short while it was written, so
    none of its renames had begun: it is discarded like its files."""
    present = set(os.listdir(root))
    committed = []
    if COMMIT_RECORD in present:
        with contextlib.suppress(ValueError):
            committed = json.loads((root / COMMIT_RECORD).read_bytes())
        _rename(root, {name: root / _temporary(name) for name in committed
                       if _temporary(name) in present}, recorded=True)
    for name in names:
        if _temporary(name) in present and name not in committed:
            os.unlink(root / _temporary(name))


def _rename(root: Path, temps: dict[str, Path], recorded: bool) -> None:
    """Rename each temporary file over its target; when the commit was
    recorded, make the renames durable and only then remove the record."""
    for name, tmp in temps.items():
        os.replace(tmp, root / name)
    if recorded:
        _fsync(root)
        os.unlink(root / COMMIT_RECORD)


#: The layout of a derived file; another number reads as absent.
DERIVED_FORMAT = 1

#: The end of a derived file: the check, a SHA-256 of the text before it.
_CHECK_TAIL = len(',"check":"') + 64 + len('"}')


def write_derived(path: Path, sources: list, *value: bytes) -> None:
    """Write over ``path`` the derived file holding a value for these
    ``sources``: an object of the format number, the package version, the
    ``[name, SHA-256]`` pair of each source, the value, and a SHA-256 of
    the text before it, as JSON in that order.  ``value`` is the value's
    JSON text, already encoded, in pieces that are hashed and written one
    by one, so a large value is never copied into one text.

    The file is written in place: no temporary file, no fsync.  A crash
    can leave it cut short or ending in its old text, and each of those
    reads as absent.  Truncating after the write rather than on open
    spares the flush that ext4 starts when a file truncated to zero is
    closed: 0.01 ms instead of 0.14 ms for a small file."""
    head = (f'{{"format":{DERIVED_FORMAT},"version":{json.dumps(__version__)},'
            f'"sources":{dump(sources)},"value":').encode("utf-8")
    check = hashlib.sha256(head)
    for piece in value:
        check.update(piece)
    check.update(b"}")
    pieces = (head, *value, f',"check":"{check.hexdigest()}"}}'.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for piece in pieces:
            os.write(fd, piece)
        os.ftruncate(fd, sum(map(len, pieces)))
    finally:
        os.close(fd)


def read_derived(path: Path, current: Callable[[list], bool]) -> bytes | None:
    """The value of the derived file ``path``, as the bytes of its JSON
    text, when the file is whole, of this layout and version, and
    ``current`` holds for the sources it names; else None.  The check is
    verified over the bytes as they are; the value is left to the caller
    to parse, or to use as it is."""
    try:
        data = path.read_bytes()
    except OSError:
        return None  # missing
    check = hashlib.sha256(memoryview(data)[:-_CHECK_TAIL])
    check.update(b"}")
    if data[-_CHECK_TAIL:] != f',"check":"{check.hexdigest()}"}}'.encode("utf-8"):
        return None  # cut short, edited, or not a derived file
    start = data.find(b',"value":')
    try:
        head = json.loads(data[:start] + b"}") if start > 0 else None
        if (type(head) is not dict or list(head) != ["format", "version", "sources"]
                or head["format"] != DERIVED_FORMAT or head["version"] != __version__
                or not current(head["sources"])):
            return None
        return data[start + len(b',"value":'):-_CHECK_TAIL]
    except (ValueError, RecursionError):
        return None


def _temporary(name: str) -> str:
    return f".{name}.tmp"


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

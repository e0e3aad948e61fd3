"""Deterministic certificate serialization, storage, and structural checks.

Certificates are nested JSON objects in which every number is written as a
decimal string ("148", "-3/4"). Floats never appear, so byte-identical
re-emission is a meaningful determinism test and diffs stay readable.
"""

from __future__ import annotations

import bisect
import contextlib
import fcntl
import hashlib
import json
import operator
import os
import re
from fractions import Fraction

from .errors import CertificateFormatError, CertificateVersionError

TOOL_VERSION = "0.1.0"
FORMAT_VERSION = "1"

CERT_PREFIX = "cert_"
INDEX_NAME = "index.json"


def exact(value) -> str:
    """Decimal-string form of an exact number. Floats are refused outright."""
    if isinstance(value, bool):
        raise CertificateFormatError("booleans are stored natively, not as numbers")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    raise CertificateFormatError(f"not an exact number: {value!r}")


# an ASCII decimal integer: the form exact() gives most numbers, read
# without Fraction's string grammar
_DECIMAL_INTEGER = re.compile(r"-?[0-9]+")


def parse_exact(text: str) -> Fraction:
    """Inverse of exact(); accepts "n" and "n/d"."""
    try:
        if text.__class__ is str and _DECIMAL_INTEGER.fullmatch(text):
            return Fraction(int(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise CertificateFormatError(f"bad exact number {text!r}") from ex


def canonical_json(payload: dict) -> str:
    """Single canonical text form: sorted keys, ASCII, newline-terminated.

    The text is exactly `json.dumps(payload, sort_keys=True,
    ensure_ascii=True, indent=1)` plus a newline, written in one walk that
    also refuses what a certificate may not hold: a number (use exact()), a
    non-string key, or any value but a dict, list, tuple, str, bool or None.

    >>> print(canonical_json({"b": ["1", True], "a": {"c": None}, "d": []}), end="")
    {
     "a": {
      "c": null
     },
     "b": [
      "1",
      true
     ],
     "d": []
    }
    """
    out = []
    try:
        _emit(payload, "\n", out.append)
    except _Refused as ex:
        raise CertificateFormatError(f"{ex.what} at {ex.path or '<root>'}{ex.tail}") from None
    out.append("\n")
    return "".join(out)


class _Refused(Exception):
    """A value canonical_json does not write.  Each level of the walk puts its
    key in front of `path` as the exception passes up, so a payload that is
    accepted never builds a path."""

    def __init__(self, what: str, tail: str = ""):
        super().__init__(what)
        self.what, self.tail, self.path = what, tail, ""


_encode_string = json.encoder.encode_basestring_ascii


def _emit(node, pad: str, emit) -> None:
    """Write node as json.dumps(sort_keys=True, ensure_ascii=True, indent=1)
    would, through emit; pad is a newline and the node's indent.  String
    members are written inline, which saves a call per leaf."""
    if isinstance(node, dict):
        if not node:
            emit("{}")
            return
        inner = pad + " "
        try:
            items = sorted(node.items())
        except TypeError:  # keys of different types
            raise _Refused("non-string key") from None
        sep, comma = "{" + inner, "," + inner
        for key, value in items:
            if not isinstance(key, str):
                raise _Refused("non-string key")
            if isinstance(value, str):
                emit(f"{sep}{_encode_string(key)}: {_encode_string(value)}")
            else:
                emit(f"{sep}{_encode_string(key)}: ")
                try:
                    _emit(value, inner, emit)
                except _Refused as ex:
                    ex.path = f"/{key}{ex.path}"
                    raise
            sep = comma
        emit(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            emit("[]")
            return
        inner = pad + " "
        sep, comma = "[" + inner, "," + inner
        try:
            for i, value in enumerate(node):
                if isinstance(value, str):
                    emit(sep + _encode_string(value))
                else:
                    emit(sep)
                    _emit(value, inner, emit)
                sep = comma
        except _Refused as ex:
            ex.path = f"/{i}{ex.path}"
            raise
        emit(pad + "]")
    elif isinstance(node, str):
        emit(_encode_string(node))
    elif node is None:
        emit("null")
    elif node is True:
        emit("true")
    elif node is False:
        emit("false")
    elif isinstance(node, (int, float)):
        raise _Refused("bare number", "; use exact()")
    else:
        raise _Refused("unsupported value", f": {type(node).__name__}")


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _filename_of(text: str) -> str:
    return f"{CERT_PREFIX}{content_hash(text)[:16]}.json"


def write_certificate(payload: dict, directory: str) -> str:
    """Store one certificate and add it to the index.

    The file name is the content hash, so the store is append-only: a file
    that already holds the right bytes is left alone, and one that holds
    other bytes (a torn write) is replaced.  Files are published atomically
    (`_publish`), and the index gains one entry under the store lock: an
    index in the layout `_index_bytes` writes gets the new row spliced in at
    its sorted place, and any other index (missing, unreadable or laid out
    otherwise) is regenerated from the files, under the same lock.
    """
    _check_header(payload)
    text = canonical_json(payload)
    data = text.encode("utf-8")
    os.makedirs(directory, exist_ok=True)
    name = _filename_of(text)
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as fh:
            current = fh.read()
    except FileNotFoundError:
        current = None
    if current != data:
        _publish(path, data)
    index_path = os.path.join(directory, INDEX_NAME)
    with _store_lock(directory):
        index = _read_index(index_path)
        if index is None:
            _rebuild(directory)
        elif name not in index[1]:
            _publish(index_path, _index_with(*index, _index_entry(name, payload)))
    return path


def _check_header(payload) -> None:
    if not isinstance(payload, dict):
        raise CertificateFormatError("certificate root must be an object")
    if "format_version" not in payload:
        raise CertificateFormatError("missing format_version")
    if payload["format_version"] != FORMAT_VERSION:
        raise CertificateVersionError(
            f"format_version {payload['format_version']!r}, expected {FORMAT_VERSION!r}"
        )
    # the index reads its entry from these two blocks
    for block in ("field_block", "verdict"):
        if not isinstance(payload.get(block, {}), dict):
            raise CertificateFormatError(f"{block} must be an object")


def _refuse_number(text: str):
    raise CertificateFormatError(f"bare number {text} in certificate JSON; use exact()")


def _parse_json(raw: bytes):
    """Parse stored JSON, refusing every number, NaN and Infinity as it is
    read.  What is left (objects with string keys, lists, strings, booleans
    and null) is all that canonical_json lets through, so parsed input needs
    no second walk."""
    try:
        return json.loads(
            raw.decode("utf-8"),
            parse_int=_refuse_number,
            parse_float=_refuse_number,
            parse_constant=_refuse_number,
        )
    except CertificateFormatError:
        raise
    except ValueError as ex:  # UnicodeDecodeError or JSONDecodeError
        raise CertificateFormatError(f"not certificate JSON: {ex}") from ex


def load_certificate(path: str) -> dict:
    with open(path, "rb") as fh:
        payload = _parse_json(fh.read())
    _check_header(payload)
    return payload


def rebuild_index(directory: str) -> str:
    """Regenerate the index from the certificate files that load.

    This is the repair tool: it reloads every certificate, drops entries
    whose file is gone, and leaves out a file that does not load (a torn
    write or another format version), so the store stays writable.  Writing
    the same certificate again replaces such a file and indexes it."""
    with _store_lock(directory):
        return _rebuild(directory)


def _rebuild(directory: str) -> str:
    """`rebuild_index` for a caller that holds the store lock."""
    entries = []
    for name in sorted(os.listdir(directory)):
        if name.startswith(CERT_PREFIX) and name.endswith(".json"):
            try:
                cert = load_certificate(os.path.join(directory, name))
            except (CertificateFormatError, CertificateVersionError):
                continue
            entries.append(_index_entry(name, cert))
    path = os.path.join(directory, INDEX_NAME)
    _publish(path, _index_bytes([_index_row(e) for e in entries]))
    return path


def _index_entry(name: str, cert: dict) -> dict:
    field = cert.get("field_block", {})
    verdict = cert.get("verdict", {})
    return {
        "file": name,
        "field": field.get("min_poly"),
        "disc": field.get("disc"),
        "verdict": verdict.get("overall"),
    }


_ENTRY_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True)
_INDEX_HEAD = b'{"certificates": [\n'
_INDEX_TAIL = b"\n]}\n"
_EMPTY_INDEX = b'{"certificates": []}\n'


def _index_row(entry: dict) -> bytes:
    """One index entry as sorted-key ASCII JSON: the C encoder's output,
    which holds no newline."""
    return _ENTRY_ENCODER.encode(entry).encode("ascii")


def _index_bytes(rows: list) -> bytes:
    """The index file: a header line, one encoded row per line, a footer."""
    return _INDEX_HEAD + b",\n".join(rows) + _INDEX_TAIL if rows else _EMPTY_INDEX


def _index_with(rows: list, files: list, entry: dict) -> bytes:
    """The index with `rows`, sorted by `files`, and `entry` added: the new
    row alone is encoded and goes in at its sorted place among the old
    bytes."""
    rows.insert(bisect.bisect(files, entry["file"]), _index_row(entry))
    return _index_bytes(rows)


def _read_index(path: str) -> tuple[list, list] | None:
    """The rows and file names of an index in the layout `_index_bytes`
    writes, one row per line and sorted by file, or None if it is missing,
    malformed or laid out in any other way."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        files = [e["file"] for e in _parse_json(raw)["certificates"]]
    except (FileNotFoundError, KeyError, TypeError, CertificateFormatError):
        return None
    if raw == _EMPTY_INDEX:
        return [], []
    body = raw[len(_INDEX_HEAD):-len(_INDEX_TAIL)]
    rows = body.split(b",\n")
    if (
        raw.startswith(_INDEX_HEAD)
        and raw.endswith(_INDEX_TAIL)
        and len(rows) == len(files)
        and body.count(b"\n") == len(files) - 1
        and all(isinstance(f, str) for f in files)
        and all(map(operator.lt, files, files[1:]))
    ):
        return rows, files
    return None


@contextlib.contextmanager
def _store_lock(directory: str):
    """Exclusive flock on the store directory itself, so no lock file is added."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def _publish(path: str, data: bytes) -> None:
    """Atomically make `path` hold `data`: write a temporary file beside it,
    fsync it, then rename it over `path`."""
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def diff_paths(recorded, recomputed, path: str = "") -> list[str]:
    """Paths at which two payloads disagree, depth-first, '/'-separated."""
    if isinstance(recorded, dict) and isinstance(recomputed, dict):
        out = []
        for key in sorted(set(recorded) | set(recomputed)):
            if key not in recorded or key not in recomputed:
                out.append(f"{path}/{key}".lstrip("/"))
            else:
                out.extend(diff_paths(recorded[key], recomputed[key], f"{path}/{key}"))
        return out
    if isinstance(recorded, list) and isinstance(recomputed, list):
        if len(recorded) != len(recomputed):
            return [path.lstrip("/") or "<root>"]
        out = []
        for i, (a, b) in enumerate(zip(recorded, recomputed)):
            out.extend(diff_paths(a, b, f"{path}/{i}"))
        return out
    if recorded != recomputed:
        return [path.lstrip("/") or "<root>"]
    return []

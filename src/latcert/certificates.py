"""Deterministic certificate serialization, storage, and structural checks.

Certificates are nested JSON objects in which every number is written as a
decimal string ("148", "-3/4"). Floats never appear, so byte-identical
re-emission is a meaningful determinism test and diffs stay readable.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
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


def parse_exact(text: str) -> Fraction:
    """Inverse of exact(); accepts "n" and "n/d"."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise CertificateFormatError(f"bad exact number {text!r}") from ex


def _check_payload(node, path: str) -> None:
    # strings, booleans, and None are the only leaves allowed
    if node is None or isinstance(node, (str, bool)):
        return
    if isinstance(node, (int, float)):
        raise CertificateFormatError(f"bare number at {path or '<root>'}; use exact()")
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                raise CertificateFormatError(f"non-string key at {path or '<root>'}")
            _check_payload(value, f"{path}/{key}")
        return
    if isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_payload(value, f"{path}/{i}")
        return
    raise CertificateFormatError(f"unsupported value at {path or '<root>'}: {type(node).__name__}")


def canonical_json(payload: dict) -> str:
    """Single canonical text form: sorted keys, ASCII, newline-terminated."""
    _check_payload(payload, "")
    return json.dumps(payload, sort_keys=True, ensure_ascii=True, indent=1) + "\n"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _filename_of(text: str) -> str:
    return f"{CERT_PREFIX}{content_hash(text)[:16]}.json"


def write_certificate(payload: dict, directory: str) -> str:
    """Store one certificate and add it to the index.

    The file name is the content hash, so the store is append-only: a file
    that already holds the right bytes is left alone, and one that holds
    other bytes (a torn write) is replaced.  Files are published atomically
    (`_publish`), and the index gains one entry under the store lock; only a
    missing or unreadable index is regenerated with `rebuild_index`.
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
        entries = _read_index(index_path)
        if entries is not None and all(entry["file"] != name for entry in entries):
            entries.append(_index_entry(name, payload))
            entries.sort(key=lambda entry: entry["file"])
            _publish(index_path, _index_bytes(entries))
    if entries is None:
        # after the lock is released: rebuild_index takes it on a descriptor
        # of its own, which would wait for this one forever
        rebuild_index(directory)
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
    no `_check_payload` walk."""
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
        entries = []
        for name in sorted(os.listdir(directory)):
            if name.startswith(CERT_PREFIX) and name.endswith(".json"):
                try:
                    cert = load_certificate(os.path.join(directory, name))
                except (CertificateFormatError, CertificateVersionError):
                    continue
                entries.append(_index_entry(name, cert))
        path = os.path.join(directory, INDEX_NAME)
        _publish(path, _index_bytes(entries))
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


def _index_bytes(entries: list) -> bytes:
    """The index text: one sorted-key ASCII entry per line.  Without indent
    each entry goes through the C encoder, so rewriting the whole index per
    write stays cheap."""
    rows = ",\n".join(map(_ENTRY_ENCODER.encode, entries))
    text = '{"certificates": [\n' + rows + "\n]}\n" if rows else '{"certificates": []}\n'
    return text.encode("ascii")


def _read_index(path: str) -> list | None:
    """The entries of an index file, or None if it is missing or malformed."""
    try:
        with open(path, "rb") as fh:
            entries = _parse_json(fh.read())["certificates"]
        if all(isinstance(e, dict) and isinstance(e.get("file"), str) for e in entries):
            return entries
    except (FileNotFoundError, KeyError, TypeError, CertificateFormatError):
        pass
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

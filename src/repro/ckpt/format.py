"""Deterministic, checksummed snapshot container for :mod:`repro.ckpt`.

One snapshot file holds a JSON *meta* document plus any number of named
numpy arrays, laid out so that writing the same state twice produces
**byte-identical** files (the resume-parity contract is pinned at the
byte level, and the campaign smoke in CI diffs snapshot-derived JSON):

``
    MAGIC (8 bytes)  "RPCKPT01"
    header length    uint64 little-endian
    header           canonical JSON: {"version", "meta", "arrays": [...]}
    payload          raw C-order array bytes, concatenated in table order
    digest           sha256 over every preceding byte (32 bytes)
``

The array table records ``name``/``dtype``/``shape``/``offset``/``nbytes``
per array, sorted by name so the byte stream never depends on dict
insertion order.  The trailing digest makes corruption detection exact:
a torn write, a truncated tail or a flipped byte all fail verification
and raise :class:`CorruptSnapshotError`, which the resume machinery
treats as "snapshot absent" rather than an error.

Writes are atomic *and durable*: the payload goes to a temp file in the
target directory, is flushed and ``fsync``'d, renamed over the target
with ``os.replace``, and the parent directory is fsync'd so a host crash
cannot leave a renamed-but-empty entry (the same discipline as the
hardened :mod:`repro.analysis.cache`).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from typing import Any, Dict, Mapping, Tuple

import numpy as np

__all__ = [
    "MAGIC",
    "SNAPSHOT_VERSION",
    "CorruptSnapshotError",
    "SnapshotError",
    "SnapshotMismatchError",
    "atomic_write_bytes",
    "read_snapshot",
    "write_snapshot",
]

#: leading magic bytes; the trailing digits version the *container*
#: layout (the logical state inventory is versioned in the header)
MAGIC = b"RPCKPT01"

#: container format version stored in the header
SNAPSHOT_VERSION = 1

_DIGEST_BYTES = 32
_MIN_FILE_BYTES = len(MAGIC) + 8 + _DIGEST_BYTES


class SnapshotError(Exception):
    """Base class for every snapshot read/restore failure."""


class CorruptSnapshotError(SnapshotError):
    """The file is not a complete, intact snapshot (bad magic, torn
    write, truncation or checksum mismatch).  Auto-resume treats this as
    "no snapshot here" and falls back to the previous one."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot is intact but does not belong to this target: wrong
    container version, or a config fingerprint that differs from the
    session being restored."""


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data``: private ``*.tmp`` file in
    the same directory, fsync, ``os.replace``, directory fsync.  A crash
    or a failure at any point leaves the previous file intact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def write_snapshot(path: str, meta: Mapping[str, Any],
                   arrays: Mapping[str, np.ndarray]) -> str:
    """Atomically write ``meta`` + ``arrays`` to ``path``; returns ``path``.

    ``meta`` must be JSON-serializable; arrays are stored C-contiguous
    with their dtype preserved exactly.  Writing the same logical state
    twice yields byte-identical files.
    """
    table = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.hasobject:
            raise TypeError(
                f"array {name!r} has an object dtype; snapshots hold "
                "plain numeric arrays only")
        blob = arr.tobytes()
        table.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)
    header = {"version": SNAPSHOT_VERSION, "meta": dict(meta),
              "arrays": table}
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    chunks = [MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes]
    chunks.extend(blobs)
    for chunk in chunks:
        digest.update(chunk)
    atomic_write_bytes(path, b"".join(chunks) + digest.digest())
    return path


def read_snapshot(path: str) -> Tuple[Dict[str, Any],
                                      Dict[str, np.ndarray]]:
    """Read and verify a snapshot; returns ``(meta, arrays)``.

    Raises :class:`CorruptSnapshotError` on any integrity failure and
    :class:`SnapshotMismatchError` on an unsupported container version.
    A missing file raises the underlying :class:`OSError`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _MIN_FILE_BYTES:
        raise CorruptSnapshotError(
            f"{path}: truncated ({len(raw)} bytes is below the minimum "
            f"container size)")
    if raw[:len(MAGIC)] != MAGIC:
        raise CorruptSnapshotError(f"{path}: bad magic bytes")
    body, stored_digest = raw[:-_DIGEST_BYTES], raw[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != stored_digest:
        raise CorruptSnapshotError(
            f"{path}: sha256 digest mismatch (torn or corrupted write)")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header_start = len(MAGIC) + 8
    header_end = header_start + header_len
    if header_end > len(body):
        raise CorruptSnapshotError(
            f"{path}: header length field exceeds the file body")
    try:
        header = json.loads(body[header_start:header_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            f"{path}: header does not parse as JSON ({exc})") from exc
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotMismatchError(
            f"{path}: unsupported snapshot container version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})")
    payload = body[header_end:]
    arrays: Dict[str, np.ndarray] = {}
    for entry in header.get("arrays", []):
        start, nbytes = entry["offset"], entry["nbytes"]
        chunk = payload[start:start + nbytes]
        if len(chunk) != nbytes:
            raise CorruptSnapshotError(
                f"{path}: array {entry['name']!r} extends past the "
                "payload")
        dtype = np.dtype(entry["dtype"])
        if dtype.hasobject:
            raise CorruptSnapshotError(
                f"{path}: array {entry['name']!r} declares an object "
                "dtype, which snapshots never contain")
        arrays[entry["name"]] = np.frombuffer(
            chunk, dtype=dtype).reshape(tuple(entry["shape"])).copy()
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise CorruptSnapshotError(f"{path}: header meta is not a mapping")
    return meta, arrays

"""Versioned artifact envelope: magic, schema version, checksum, provenance.

Binary artifacts (checkpoints) are framed as::

    REPROART1\\n | u32 header-length | header JSON (utf-8) | payload bytes

The header carries ``format`` (artifact family, e.g. ``"smt-checkpoint"``),
``version`` (schema version of the *payload*, owned by the family),
``length`` and ``crc32`` of the payload, and ``writer`` provenance
(pid/host/tool). Validation is strictly layered: magic, then header
decode, then length, then CRC — so ``repro fsck`` can tell a torn tail
(frame shorter than the header promises) from bitrot (full length, wrong
checksum) from an alien file (no magic).

JSON documents (campaign reports, behaviour profiles and other
human-readable artifacts) can't carry a binary frame without losing
greppability, so they embed the same metadata *inside* the document under
an ``"artifact"`` key, with the CRC computed over the canonical JSON of
the rest of the document
(:func:`canonical_json_crc`). Legacy plain-JSON documents load fine and
classify as *migratable*.

Old formats load forward through per-family migration hooks registered
with :func:`register_migration`; the storage layer itself stays
format-agnostic.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import zlib
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.storage.atomic import RetrySpec, atomic_write_bytes, read_bytes
from repro.storage.errors import ArtifactCorruptError, ArtifactVersionError

#: Frame magic. Fixed 10 bytes; the trailing newline makes ``head -c`` and
#: ``file``-style probes print something sane on a binary artifact.
MAGIC = b"REPROART1\n"

_HEAD = struct.Struct("<10sI")

#: Per-(format, payload-version) migration hooks: ``bytes -> bytes`` maps an
#: old payload to the current schema at load time.
_MIGRATIONS: Dict[Tuple[str, int], Callable[[bytes], bytes]] = {}


def register_migration(
    fmt: str, version: int, fn: Callable[[bytes], bytes]
) -> None:
    """Register a load-forward hook for ``fmt`` payloads at ``version``.

    The hook receives the old payload bytes and returns bytes in the
    current schema; :func:`read_artifact` applies it transparently when
    ``expect_version`` is newer than the stored version.
    """
    _MIGRATIONS[(fmt, version)] = fn


def writer_provenance(tool: str = "repro") -> dict:
    """Who wrote this artifact (pid/host/tool), for post-mortems."""
    return {"pid": os.getpid(), "host": socket.gethostname(), "tool": tool}


def pack_artifact(
    fmt: str, version: int, payload: bytes, tool: str = "repro"
) -> bytes:
    """Frame ``payload`` in the envelope; returns the full file bytes."""
    header = {
        "format": fmt,
        "version": version,
        "length": len(payload),
        "crc32": zlib.crc32(payload),
        "writer": writer_provenance(tool),
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    return _HEAD.pack(MAGIC, len(hjson)) + hjson + payload


def write_artifact(
    path: Union[str, Path],
    fmt: str,
    version: int,
    payload: bytes,
    tool: str = "repro",
    fsync: bool = True,
    retry: Optional[RetrySpec] = None,
) -> None:
    """Atomically write ``payload`` to ``path`` inside the envelope."""
    blob = pack_artifact(fmt, version, payload, tool=tool)
    kwargs = {} if retry is None else {"retry": retry}
    atomic_write_bytes(path, blob, fsync=fsync, **kwargs)


def is_enveloped(blob: bytes) -> bool:
    """Whether ``blob`` starts with the envelope magic."""
    return blob[: len(MAGIC)] == MAGIC


def unpack_artifact(
    blob: bytes,
    expect_format: Optional[str] = None,
    expect_version: Optional[int] = None,
) -> Tuple[dict, bytes]:
    """Validate an in-memory envelope; returns ``(header, payload)``.

    Raises :class:`~repro.storage.errors.ArtifactCorruptError` on bad
    magic / torn frame / checksum mismatch, and
    :class:`~repro.storage.errors.ArtifactVersionError` on a format or
    version this code cannot load (no migration registered).
    """
    if len(blob) < _HEAD.size:
        raise ArtifactCorruptError(f"torn artifact: {len(blob)} bytes, no frame header")
    magic, hlen = _HEAD.unpack_from(blob)
    if magic != MAGIC:
        raise ArtifactCorruptError(f"bad magic {magic!r}: not a repro artifact")
    body = blob[_HEAD.size :]
    if len(body) < hlen:
        raise ArtifactCorruptError(
            f"torn artifact: header claims {hlen} bytes, {len(body)} present"
        )
    try:
        header = json.loads(body[:hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptError(f"undecodable artifact header: {exc}") from exc
    # A bit-flip inside the header JSON can keep it parseable while renaming
    # or retyping a required key; treat any malformed header as corruption.
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("length"), int)
        or not isinstance(header.get("crc32"), int)
        or header["length"] < 0
    ):
        raise ArtifactCorruptError("malformed artifact header (damaged fields)")
    payload = body[hlen:]
    length = header["length"]
    if len(payload) < length:
        raise ArtifactCorruptError(
            f"torn artifact payload: header claims {length} bytes, "
            f"{len(payload)} present"
        )
    payload = payload[:length]
    if zlib.crc32(payload) != header.get("crc32"):
        raise ArtifactCorruptError(
            f"artifact checksum mismatch ({header.get('format')!r} payload)"
        )
    if expect_format is not None and header.get("format") != expect_format:
        raise ArtifactVersionError(
            f"artifact format {header.get('format')!r}, expected {expect_format!r}"
        )
    if expect_version is not None and header.get("version") != expect_version:
        hook = _MIGRATIONS.get((header.get("format"), header.get("version")))
        if hook is None:
            raise ArtifactVersionError(
                f"artifact {header.get('format')!r} version "
                f"{header.get('version')}, expected {expect_version} "
                f"(no migration registered)"
            )
        payload = hook(payload)
        header = dict(header, version=expect_version, migrated_from=header["version"])
    return header, payload


def read_artifact(
    path: Union[str, Path],
    expect_format: Optional[str] = None,
    expect_version: Optional[int] = None,
) -> Tuple[dict, bytes]:
    """Read + validate the envelope at ``path``; returns ``(header, payload)``."""
    return unpack_artifact(
        read_bytes(path), expect_format=expect_format, expect_version=expect_version
    )


# -- JSON-document artifacts -------------------------------------------------
def canonical_json_crc(obj: object) -> int:
    """CRC32 over the canonical (sorted-keys) JSON encoding of ``obj``."""
    return zlib.crc32(json.dumps(obj, sort_keys=True, default=str).encode("utf-8"))


def embed_json_artifact(payload: dict, fmt: str, version: int) -> dict:
    """Return ``payload`` with an embedded ``"artifact"`` metadata block.

    The CRC covers everything *except* the metadata block itself, so the
    document stays a plain greppable JSON object. The payload is JSON-
    normalized first (round-tripped) so the stored CRC matches a load-side
    recompute over the parsed document bit-for-bit.
    """
    payload = json.loads(json.dumps(payload, default=str))
    doc = {k: v for k, v in payload.items() if k != "artifact"}
    doc["artifact"] = {
        "format": fmt,
        "version": version,
        "crc32": canonical_json_crc({k: v for k, v in doc.items() if k != "artifact"}),
        "writer": writer_provenance(),
    }
    return doc


def load_json_artifact(
    path: Union[str, Path], expect_format: Optional[str] = None
) -> Tuple[Optional[dict], dict]:
    """Load a JSON document artifact; returns ``(meta_or_None, payload)``.

    ``meta`` is None for a legacy plain-JSON document (valid, migratable).
    Raises :class:`~repro.storage.errors.ArtifactCorruptError` when the
    document does not parse or its embedded CRC does not match, and
    :class:`~repro.storage.errors.ArtifactVersionError` on a format
    mismatch.
    """
    blob = read_bytes(path)
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptError(f"{path}: undecodable JSON artifact: {exc}") from exc
    if not isinstance(doc, dict) or "artifact" not in doc:
        return None, doc if isinstance(doc, dict) else {"value": doc}
    meta = doc["artifact"]
    payload = {k: v for k, v in doc.items() if k != "artifact"}
    if canonical_json_crc(payload) != meta.get("crc32"):
        raise ArtifactCorruptError(f"{path}: JSON artifact checksum mismatch")
    if expect_format is not None and meta.get("format") != expect_format:
        raise ArtifactVersionError(
            f"{path}: JSON artifact format {meta.get('format')!r}, "
            f"expected {expect_format!r}"
        )
    return meta, payload

"""Checksummed JSON document artifacts: format, version, CRC, provenance.

Every artifact the program writes besides a run journal is a JSON
document (campaign reports, behaviour profiles, result-store entries,
traffic recordings). Each embeds its metadata *inside* the document under
an ``"artifact"`` key, so it stays a plain greppable JSON object:
``format`` (artifact family, e.g. ``"sim-result"``), ``version`` (schema
version of the payload, owned by the family), ``crc32`` of the canonical
JSON of the rest of the document (:func:`canonical_json_crc`) and
``writer`` provenance (pid/host/tool).

A reader names the family it expects as a ``(format, version)`` pair and
refuses a document of another format or version
(:class:`~repro.storage.errors.ArtifactVersionError`; the CRC does not
cover the block, so a damaged version lands here too) and a document
without the block: a bit flip in the key ``"artifact"`` itself must not
turn a checksummed document into unchecked plain JSON. Only a reader that
names no family (a committed plain-JSON baseline, say) accepts one;
``repro fsck`` classifies those as *migratable*.
"""

from __future__ import annotations

import json
import os
import socket
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.storage.atomic import atomic_write_bytes, read_bytes
from repro.storage.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactVersionError,
)


def writer_provenance() -> dict:
    """Who wrote this artifact (pid/host/tool), for post-mortems."""
    return {"pid": os.getpid(), "host": socket.gethostname(), "tool": "repro"}


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


def write_json_artifact(
    path: Union[str, Path], payload: dict, fmt: str, version: int
) -> dict:
    """Write ``payload`` to ``path`` as a ``(fmt, version)`` document
    artifact; returns the written document.

    The one on-disk layout of every artifact document: the embedded block
    (:func:`embed_json_artifact`), two-space indented JSON with sorted keys
    and a final newline, replaced atomically
    (:func:`~repro.storage.atomic.atomic_write_bytes`). Raises the
    classified :class:`~repro.storage.errors.StorageError` of a failed
    write.
    """
    doc = embed_json_artifact(payload, fmt, version)
    blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, blob.encode("utf-8"))
    return doc


def _stray_artifact_key(doc: dict) -> Optional[str]:
    """The top-level key, other than ``"artifact"``, whose value is shaped
    like an artifact block (``format``, ``version`` and ``crc32``), or
    None. A document with no ``"artifact"`` key but such a block is a
    checksummed document whose key was damaged, not plain JSON."""
    for key, value in doc.items():
        if key != "artifact" and isinstance(value, dict) and {
            "format", "version", "crc32"
        } <= value.keys():
            return key
    return None


def check_family(meta: dict, expect: Tuple[str, int]) -> None:
    """Raise :class:`~repro.storage.errors.ArtifactVersionError` unless the
    artifact block ``meta`` names ``expect``'s format and version."""
    found = (meta.get("format"), meta.get("version"))
    if found != tuple(expect):
        raise ArtifactVersionError(
            f"JSON artifact {found[0]!r} version {found[1]!r}, "
            f"expected {expect[0]!r} version {expect[1]!r}"
        )


def parse_json_artifact(
    blob: bytes, expect: Optional[Tuple[str, int]] = None
) -> Tuple[Optional[dict], dict]:
    """Validate a JSON document artifact's bytes; returns
    ``(meta_or_None, payload)``.

    ``expect`` is the ``(format, version)`` pair a reader expects. ``meta``
    is None for a plain-JSON document (valid, migratable), which only a
    reader with no ``expect`` accepts. Raises
    :class:`~repro.storage.errors.ArtifactCorruptError` when the document
    does not parse, its embedded CRC does not match, or it has no artifact
    block but a reader expects one or another key holds an artifact-shaped
    block, and :class:`~repro.storage.errors.ArtifactVersionError` on a
    format or version mismatch (:func:`check_family`).
    """
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptError(f"undecodable JSON artifact: {exc}") from exc
    if not isinstance(doc, dict) or "artifact" not in doc:
        if expect is not None:
            raise ArtifactCorruptError(
                f"no artifact block, expected a {expect[0]!r} document"
            )
        if not isinstance(doc, dict):
            return None, {"value": doc}
        stray = _stray_artifact_key(doc)
        if stray is not None:
            raise ArtifactCorruptError(f"artifact block under damaged key {stray!r}")
        return None, doc
    meta = doc["artifact"]
    payload = {k: v for k, v in doc.items() if k != "artifact"}
    if not isinstance(meta, dict) or canonical_json_crc(payload) != meta.get("crc32"):
        raise ArtifactCorruptError("JSON artifact checksum mismatch")
    if expect is not None:
        check_family(meta, expect)
    return meta, payload


def load_json_artifact(
    path: Union[str, Path], expect: Optional[Tuple[str, int]] = None
) -> Tuple[Optional[dict], dict]:
    """Read and validate the JSON document artifact at ``path``
    (:func:`parse_json_artifact`); errors name the path."""
    try:
        return parse_json_artifact(read_bytes(path), expect)
    except ArtifactError as exc:
        raise type(exc)(f"{path}: {exc}") from exc

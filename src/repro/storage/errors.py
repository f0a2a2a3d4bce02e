"""Storage failure taxonomy.

Every way a durable-artifact operation can fail maps onto one class here,
so callers react per-category — retry a :class:`TransientStorageError`,
free space on a :class:`DiskFullError`, quarantine on an
:class:`ArtifactCorruptError` — instead of pattern-matching ``OSError``
messages. :mod:`repro.harness.errors` re-exports the whole hierarchy so
harness code sees one unified taxonomy.

This module is deliberately dependency-free (it sits below both
``repro.storage`` and ``repro.harness`` in the import graph).
"""

from __future__ import annotations

import errno


class StorageError(Exception):
    """Base class for all durable-storage failures."""


class DiskFullError(StorageError):
    """The device is out of space or quota (``ENOSPC``/``EDQUOT``)."""


class StoragePermissionError(StorageError):
    """The artifact path is not writable/readable (``EACCES``/``EPERM``).

    Permission *flaps* (NFS re-exports, container remounts) are transient;
    the atomic layer retries before raising this.
    """


class TransientStorageError(StorageError):
    """An I/O failure that did not resolve within the bounded retries
    (``EIO``, ``EAGAIN``, ``EBUSY``, short writes, injected torn writes)."""


class ArtifactError(StorageError):
    """Base class for artifact-level failures (a document that is not
    what its reader expects)."""


class ArtifactCorruptError(ArtifactError):
    """The artifact's bytes do not validate (undecodable JSON, checksum
    mismatch, a missing or damaged artifact block). The file cannot be
    trusted."""


class ArtifactVersionError(ArtifactError):
    """The artifact is intact but of another format or schema version than
    the reader expects."""


#: ``errno`` values treated as transient and retried by the atomic layer.
#: ENOSPC is included deliberately: at fleet scale a full disk is routinely
#: a *momentary* condition (log rotation, a sibling's temp file) and the
#: retry-with-jitter absorbs it; a persistently full disk still surfaces as
#: :class:`DiskFullError` once the budget is spent.
TRANSIENT_ERRNOS = frozenset(
    e
    for e in (
        errno.EAGAIN,
        errno.EINTR,
        errno.EIO,
        errno.ENOSPC,
        errno.EBUSY,
        errno.EACCES,
        errno.EPERM,
        getattr(errno, "EDQUOT", None),
    )
    if e is not None
)


def classify_oserror(exc: OSError) -> StorageError:
    """Map a raw ``OSError`` onto the storage taxonomy (not raised here).

    The returned instance carries the original message; callers ``raise
    classify_oserror(exc) from exc`` so the errno chain stays visible.
    """
    no = exc.errno
    detail = f"[{errno.errorcode.get(no, no)}] {exc}"
    if no in (errno.ENOSPC, getattr(errno, "EDQUOT", -1)):
        return DiskFullError(detail)
    if no in (errno.EACCES, errno.EPERM):
        return StoragePermissionError(detail)
    return TransientStorageError(detail)


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is an ``OSError`` the atomic layer should retry."""
    return isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS

"""Unified durable-artifact storage layer.

Every artifact the harness persists — run journals, simulator
checkpoints, result stores, reports and profiles — goes through this
package: atomic write/rename with fsync discipline and bounded retry
(:mod:`repro.storage.atomic`), a versioned self-describing envelope
with payload checksums
(:mod:`repro.storage.artifact`), a seeded filesystem fault injector
(:mod:`repro.storage.faultfs`), and an audit/repair engine behind
``repro fsck`` (:mod:`repro.storage.fsck`).

Layering: this package never imports from :mod:`repro.harness` or
:mod:`repro.smt` at module scope (``fsck`` reaches them lazily inside
probe functions), so artifact owners are free to import storage.
"""

from repro.storage.artifact import (
    MAGIC,
    canonical_json_crc,
    embed_json_artifact,
    is_enveloped,
    load_json_artifact,
    pack_artifact,
    read_artifact,
    unpack_artifact,
    write_artifact,
    writer_provenance,
)
from repro.storage.atomic import (
    DEFAULT_RETRY,
    RetrySpec,
    append_line,
    atomic_write_bytes,
    fsync_dir,
    pid_alive,
    quarantine,
    read_bytes,
)
from repro.storage.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactVersionError,
    DiskFullError,
    StorageError,
    StoragePermissionError,
    TransientStorageError,
    classify_oserror,
    is_transient,
)
from repro.storage.faultfs import (
    DiskFaultPlan,
    FaultFS,
    active_faultfs,
    faultfs_session,
    install_faultfs,
)
from repro.storage.fsck import FsckEntry, FsckReport, fsck_file, fsck_tree

__all__ = [
    "MAGIC",
    "canonical_json_crc",
    "embed_json_artifact",
    "is_enveloped",
    "load_json_artifact",
    "pack_artifact",
    "read_artifact",
    "unpack_artifact",
    "write_artifact",
    "writer_provenance",
    "DEFAULT_RETRY",
    "RetrySpec",
    "append_line",
    "atomic_write_bytes",
    "fsync_dir",
    "pid_alive",
    "quarantine",
    "read_bytes",
    "ArtifactCorruptError",
    "ArtifactError",
    "ArtifactVersionError",
    "DiskFullError",
    "StorageError",
    "StoragePermissionError",
    "TransientStorageError",
    "classify_oserror",
    "is_transient",
    "DiskFaultPlan",
    "FaultFS",
    "active_faultfs",
    "faultfs_session",
    "install_faultfs",
    "FsckEntry",
    "FsckReport",
    "fsck_file",
    "fsck_tree",
]

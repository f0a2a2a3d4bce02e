"""Mid-run simulator checkpointing: atomic, validated state snapshots.

A snapshot serializes the *complete* simulator state — pipeline queues and
contexts, RNG substreams, per-thread counters, the ADTS controller's FSM,
watchdog and decision history, any queued detector-thread work (the
callbacks are :func:`functools.partial` over bound methods, chosen for
exactly this reason), and a fault injector's plan cursor — so that

    run to quantum k, checkpoint, restore, run to the end

is bit-identical to an uninterrupted run. That turns crash recovery from
whole-cell granularity (the :class:`~repro.harness.journal.RunJournal`) into
sub-cell granularity: a supervisor can SIGKILL a hung worker and the retry
resumes from the last quantum boundary instead of cycle zero.

Snapshots are only taken *between* quanta (``SMTProcessor.at_quantum_boundary``)
— the one instant with no half-executed cycle and freshly-cleared quantum
counters — and are written torn-proof twice over: the pickled payload rides
inside the versioned artifact envelope of :mod:`repro.storage.artifact`
(magic, schema version, length, CRC32, writer provenance — a partial write
never validates), and the frame lands through
:func:`repro.storage.atomic.atomic_write_bytes` (temp + fsync + rename +
directory fsync, with bounded retry on transient I/O errors). A file that
fails validation is quarantined to ``*.corrupt`` *before*
:class:`CheckpointError` is raised, so a retry loop regenerates from
scratch instead of re-reading the same bad bytes forever.

Serialization is :mod:`pickle` of the live object graph. That is deliberate:
the simulator is pure in-process Python state with seeded NumPy/stdlib RNGs
(both of which pickle their exact stream position), and a structural
re-encoding of every queue would have to be maintained in lockstep with the
pipeline forever. The cost is that snapshots are only readable by the same
code version — which is what the versioned header enforces.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.storage.artifact import is_enveloped, unpack_artifact, write_artifact
from repro.storage.atomic import quarantine, read_bytes
from repro.storage.errors import ArtifactError, ArtifactVersionError, StorageError

#: Bump on any change to the frame layout or the pickled bundle's schema
#: (v1, the bare pre-envelope ``REPRO-SNAP`` frame, is not read).
CHECKPOINT_VERSION = 2
#: Artifact-envelope format name for snapshot files.
CHECKPOINT_FORMAT = "smt-checkpoint"


class CheckpointError(Exception):
    """A snapshot could not be written, read, or trusted (torn/mismatched)."""


class CheckpointVersionError(CheckpointError):
    """The snapshot file is intact but schema-incompatible (wrong artifact
    format or unsupported version). Unlike byte-level damage it is *not*
    quarantined — newer code may still read it."""


@dataclass
class Snapshot:
    """One restored checkpoint: the simulator plus its scheduler stack."""

    processor: object
    controller: Optional[object]
    injector: Optional[object]
    quantum_index: int
    cycle: int
    meta: dict


def save_checkpoint(
    path: Union[str, Path],
    processor,
    controller=None,
    injector=None,
    meta: Optional[dict] = None,
) -> None:
    """Atomically write a snapshot of ``processor`` (and its hook stack).

    Raises :class:`CheckpointError` if the processor is mid-quantum: a
    snapshot between phase walks of a cycle would capture a state no real
    run ever restarts from.
    """
    if not processor.at_quantum_boundary:
        raise CheckpointError(
            f"checkpoint requested mid-quantum (cycle {processor.now}); "
            "snapshots are only taken at quantum boundaries"
        )
    bundle = {
        "processor": processor,
        "controller": controller,
        "injector": injector,
        "quantum_index": processor.quantum_index,
        "cycle": processor.now,
        "meta": dict(meta or {}),
    }
    try:
        payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"simulator state is not serializable: {exc}") from exc
    # StorageError from the atomic layer (disk full, retry-exhausted I/O)
    # propagates as-is: checkpointing callers degrade rather than abort.
    write_artifact(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, payload)


def parse_snapshot_payload(path: Union[str, Path], blob: bytes) -> bytes:
    """Extract the pickled bundle from a snapshot file's raw bytes.

    Raises :class:`CheckpointError` on damage, on a file that is not an
    artifact envelope, or on an unsupported version.
    """
    if not is_enveloped(blob):
        raise CheckpointError(f"{path}: not a repro snapshot (bad magic)")
    try:
        header, payload = unpack_artifact(blob, expect_format=CHECKPOINT_FORMAT)
    except ArtifactVersionError as exc:
        raise CheckpointVersionError(f"{path}: {exc}") from exc
    except ArtifactError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: snapshot version {header.get('version')} != "
            f"supported {CHECKPOINT_VERSION}"
        )
    return payload


def load_checkpoint(path: Union[str, Path], expect_meta: Optional[dict] = None) -> Snapshot:
    """Read and validate a snapshot; raises :class:`CheckpointError` on a
    missing, torn, corrupt, or version-mismatched file.

    A file whose *bytes* are damaged (bad magic, torn frame, checksum or
    unpickle failure) is quarantined to ``*.corrupt`` before the raise, so
    retry loops regenerate instead of re-reading the same bad bytes; a
    version or metadata mismatch leaves the (intact) file in place.

    ``expect_meta`` keys, when given, must match the stored metadata — the
    guard against resuming a cell from some *other* run's snapshot.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no snapshot at {path}")
    try:
        blob = read_bytes(path)
    except FileNotFoundError:
        raise CheckpointError(f"no snapshot at {path}") from None
    except StorageError as exc:
        raise CheckpointError(f"{path}: unreadable snapshot: {exc}") from exc
    try:
        payload = parse_snapshot_payload(path, blob)
    except CheckpointVersionError:
        raise  # intact but incompatible: keep the file
    except CheckpointError as exc:
        dest = quarantine(path)
        raise CheckpointError(
            f"{exc} (quarantined to {dest})" if dest else str(exc)
        ) from exc
    try:
        bundle = pickle.loads(payload)
    except Exception as exc:
        dest = quarantine(path)
        raise CheckpointError(
            f"{path}: undecodable snapshot payload: {exc}"
            + (f" (quarantined to {dest})" if dest else "")
        ) from exc
    meta = bundle.get("meta", {})
    if expect_meta:
        for key, want in expect_meta.items():
            got = meta.get(key)
            if got != want:
                raise CheckpointError(
                    f"{path}: snapshot is for a different run "
                    f"({key}={got!r}, expected {want!r})"
                )
    return Snapshot(
        processor=bundle["processor"],
        controller=bundle.get("controller"),
        injector=bundle.get("injector"),
        quantum_index=bundle["quantum_index"],
        cycle=bundle["cycle"],
        meta=meta,
    )


def discard_checkpoint(path: Union[str, Path]) -> None:
    """Remove a snapshot file if present (clean-finish housekeeping)."""
    path = Path(path)
    if path.exists():
        path.unlink()

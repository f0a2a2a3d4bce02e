"""Atomic durable-write primitives with fsync discipline and bounded retry.

Every persistent artifact in the repo (run journals, simulator snapshots,
result-store entries, reports, profiles) lands on disk through the helpers
here, so durability policy lives in exactly one place:

* **whole files** go through :func:`atomic_write_bytes` — write to a
  uniquely-named temp file in the target directory, fsync, ``os.replace``,
  fsync the directory: readers never observe a partial file under any kill
  timing, and a crash after the replace cannot resurrect the old contents;
* **append-only records** go through :func:`append_line` — the full record
  is pre-serialized and issued as a *single* ``os.write``; if the write
  tears (ENOSPC mid-record, injected fault) the file is truncated back to
  its pre-write length before the retry, so a torn tail can never
  masquerade as corruption on resume;
* **reads** go through :func:`read_bytes` so a transient EIO is retried.

Transient ``OSError``\\ s (see :data:`repro.storage.errors.TRANSIENT_ERRNOS`)
are retried with exponential backoff plus jitter; a failure that outlives
the budget is raised classified (:func:`~repro.storage.errors.classify_oserror`)
— :class:`~repro.storage.errors.DiskFullError` for ENOSPC,
:class:`~repro.storage.errors.StoragePermissionError` for EACCES/EPERM,
:class:`~repro.storage.errors.TransientStorageError` otherwise.

Every raw write and rename routes through the installed
:class:`~repro.storage.faultfs.FaultFS` (if any), which is how the
disk-fault family of :class:`~repro.faults.plan.FaultPlan` reaches every
storage write uniformly.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.storage.errors import classify_oserror, is_transient
from repro.storage.faultfs import active_faultfs

#: Monotonic counter making concurrent temp names unique within a process.
_TMP_COUNTER = itertools.count()

#: Jitter source for retry backoff. Deliberately *not* seeded: backoff
#: timing never affects results (all artifact contents are deterministic),
#: and distinct jitter across workers is exactly what de-correlates their
#: retries against a shared overloaded device.
_JITTER = random.Random()


@dataclass(frozen=True)
class RetrySpec:
    """Bounded retry-with-jitter policy for one storage operation.

    Attributes:
        attempts: total tries (first attempt included).
        base_delay_s: delay before the second try.
        factor: exponential growth of the delay per retry.
        max_delay_s: delay ceiling.
        jitter: uniform fractional jitter added on top (0.5 = up to +50%).
    """

    attempts: int = 5
    base_delay_s: float = 0.005
    factor: float = 2.0
    max_delay_s: float = 0.25
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        base = min(self.max_delay_s, self.base_delay_s * self.factor ** (attempt - 1))
        return base * (1.0 + self.jitter * _JITTER.random())


DEFAULT_RETRY = RetrySpec()


def _write_all(fd: int, data: bytes) -> None:
    """Write every byte of ``data`` (short writes count as torn writes)."""
    ffs = active_faultfs()
    written = ffs.write(fd, data) if ffs is not None else os.write(fd, data)
    if written != len(data):
        raise OSError(5, f"short write: {written} of {len(data)} bytes")


def _replace(src: Union[str, Path], dst: Union[str, Path]) -> None:
    ffs = active_faultfs()
    if ffs is not None:
        ffs.replace(src, dst)
    else:
        os.replace(src, dst)


def fsync_dir(path: Union[str, Path]) -> None:
    """Persist a directory's entry table (best-effort; not supported on all
    filesystems). Called after ``os.replace`` so the rename itself survives
    a crash on journaling filesystems."""
    try:
        dirfd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
    except OSError:
        pass


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    retry: RetrySpec = DEFAULT_RETRY,
) -> None:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename).

    Readers never observe a partial file; concurrent writers race safely
    (last rename wins, both files were complete). Transient failures are
    retried per ``retry``; the temp file is always cleaned up. Raises a
    classified :class:`~repro.storage.errors.StorageError` on exhaustion.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for attempt in range(1, retry.attempts + 1):
        tmp = path.parent / f".{path.name}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                _write_all(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            _replace(tmp, path)
            fsync_dir(path.parent)
            return
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if attempt >= retry.attempts or not is_transient(exc):
                raise classify_oserror(exc) from exc
            time.sleep(retry.delay(attempt))


def append_line(
    path: Union[str, Path],
    line: Union[str, bytes],
    retry: RetrySpec = DEFAULT_RETRY,
) -> None:
    """Durably append one pre-serialized record as a single write.

    The newline is added here; ``line`` must not contain one. The whole
    record goes down in one ``os.write`` so a mid-record failure cannot
    interleave with another record, and on any failure (ENOSPC after N
    bytes, torn write) the file is truncated back to its pre-append length
    before retrying — the torn tail is healed immediately instead of being
    discovered as "corruption" on the next resume.

    The truncate-on-failure repair assumes a single writer, which the
    journal's flock already enforces.
    """
    data = line.encode("utf-8") if isinstance(line, str) else line
    data += b"\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        start = os.fstat(fd).st_size
        for attempt in range(1, retry.attempts + 1):
            try:
                _write_all(fd, data)
                os.fsync(fd)
                return
            except OSError as exc:
                try:
                    os.ftruncate(fd, start)
                except OSError:
                    pass  # the torn tail stays; load()/fsck truncate it later
                if attempt >= retry.attempts or not is_transient(exc):
                    raise classify_oserror(exc) from exc
                time.sleep(retry.delay(attempt))
    finally:
        os.close(fd)


def read_bytes(
    path: Union[str, Path], retry: RetrySpec = DEFAULT_RETRY
) -> bytes:
    """Read a whole file, retrying transient EIO.

    A missing file raises ``FileNotFoundError`` unclassified (absence is a
    caller-level condition, not a storage fault); other exhausted failures
    raise classified :class:`~repro.storage.errors.StorageError`."""
    for attempt in range(1, retry.attempts + 1):
        try:
            return Path(path).read_bytes()
        except FileNotFoundError:
            raise
        except OSError as exc:
            if attempt >= retry.attempts or not is_transient(exc):
                raise classify_oserror(exc) from exc
            time.sleep(retry.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe).

    The storage layer's lease/lock staleness checks all route through
    here: a lease or lock stamped with a dead PID is safe to break, one
    stamped with a PID we cannot signal (EPERM) is definitely alive.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but isn't ours (EPERM): definitely alive
    return True


def quarantine(path: Union[str, Path]) -> Optional[Path]:
    """Move a damaged artifact aside to ``<name>.corrupt`` (best-effort).

    Retry loops then regenerate instead of re-reading the same bad bytes
    forever, and ``repro fsck`` finds the evidence. Numbered suffixes keep
    repeated quarantines from overwriting each other. Returns the new path,
    or None when the rename itself failed (nothing worse than the status
    quo). Quarantine renames bypass the fault injector: the repair path
    must not be able to fail recursively.
    """
    path = Path(path)
    dest = path.with_name(path.name + ".corrupt")
    n = 0
    while dest.exists():
        n += 1
        dest = path.with_name(f"{path.name}.corrupt.{n}")
    try:
        os.replace(path, dest)
    except OSError:
        return None
    return dest

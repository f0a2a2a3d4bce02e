"""JSONL run journal: resume long sweeps cell by cell.

Each completed sweep cell is appended as one JSON line
``{"key": <run key>, "payload": {...}, "crc": <crc32>}`` in a single
durable write (:func:`repro.storage.atomic.append_line`), so a
killed sweep loses at most the cell that was in flight and an ENOSPC
mid-record is healed by truncation instead of leaving a torn tail. The
key is the cell's :func:`~repro.harness.runner.run_key` (the request
identity the service gives the same run); the journal itself treats it
as an opaque string. On resume the journal is loaded and every journaled
cell is served from the stored payload instead of being re-simulated;
because all simulations are seed-deterministic, the resumed aggregate is
identical to an uninterrupted run.

The per-line ``crc`` covers the canonical JSON of ``[key, payload]``, so
bitrot inside a record is detected at load time rather than silently
resumed from. A line without its ``crc`` is damaged like any other: an
edit that drops the checksum must not turn a record into a trusted one.

A process killed mid-write can leave a truncated final line, one without
its newline; that tail is silently discarded (its cell simply re-runs).
Any other undecodable line — one before the tail, or a complete,
newline-terminated last record that fails its checksum — means real
corruption: strict :meth:`RunJournal.load` raises
:class:`~repro.harness.errors.JournalError` rather than quietly dropping
completed work, while :meth:`RunJournal.recover` (used by sweep resume)
salvages every intact record, quarantines the damaged original to
``*.corrupt``, and rewrites the salvaged lines so the run continues minus
only the broken cells.

**Single-writer locking.** Two sweeps (or two supervisors) appending to the
same journal would interleave partial lines and corrupt both runs. The
first ``record()`` therefore takes an advisory ``fcntl.flock`` on a sidecar
``<journal>.lock`` file (stamped with the holder's PID) and holds it for
the journal object's lifetime; a second writer fails fast with a
:class:`JournalError` naming the live holder instead of corrupting the
file. The lock dies with the process (flock semantics), so a SIGKILLed
sweep never leaves a stale lock behind.

**Stale-lock breaking.** A flock can outlive its *stamped* holder: the
lock fd is inherited across fork, so when a supervisor that took the lock
is SIGKILLed while a forked worker still holds the inherited descriptor,
every later writer sees a lock "held" by a PID that no longer exists and
wedges until someone deletes the sidecar by hand. ``acquire_lock`` now
detects that case — flock conflict *and* stamped holder PID dead — breaks
the stale lock by unlinking the sidecar (a fresh inode carries no old
flock), and retries once. A conflict whose stamped holder is alive still
fails fast exactly as before.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

from repro.harness.errors import JournalError, StorageError
from repro.storage.atomic import append_line, atomic_write_bytes, pid_alive, quarantine

try:
    import fcntl
except ImportError:  # non-POSIX: locking degrades to no-op
    fcntl = None

log = logging.getLogger("repro.journal")


def _entry_crc(key: str, payload: dict) -> int:
    """Per-line CRC32 over the canonical JSON of ``[key, payload]``.

    ``payload`` must already be JSON-normalized (``record`` round-trips it)
    so the load-side recompute over the parsed line matches exactly.
    """
    blob = json.dumps([key, payload], sort_keys=True, default=str)
    return zlib.crc32(blob.encode("utf-8"))


def _decode_line(line: str) -> tuple:
    """Decode + checksum-verify one journal line; returns ``(key, payload)``.

    Raises ``ValueError`` on any damage, ``KeyError`` on a missing field
    (``crc`` included).
    """
    entry = json.loads(line)
    key, payload = entry["key"], entry["payload"]
    if entry["crc"] != _entry_crc(key, payload):
        raise ValueError(f"journal line checksum mismatch (key {key[:40]!r})")
    return key, payload


def scan_journal_lines(text: str) -> dict:
    """Classify every line of a JSONL journal's text (shared by
    :meth:`RunJournal.load`, :meth:`RunJournal.recover` and ``repro fsck``).

    Returns ``{"entries": {key: payload}, "good_lines": [verbatim valid
    lines], "bad_lines": [1-based indices], "torn_tail": bool}``. Only an
    undecodable final line *without* its newline is a torn tail: a killed
    append stops before the newline it writes last. A complete,
    newline-terminated record that fails its checksum was damaged after it
    was written, so it is a bad line wherever it sits.
    """
    lines = text.splitlines()
    entries: Dict[str, dict] = {}
    good_lines = []
    bad_lines = []
    torn_tail = False
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            key, payload = _decode_line(line)
        except (ValueError, KeyError, TypeError):
            if i == len(lines) - 1 and not text.endswith("\n"):
                torn_tail = True
            else:
                bad_lines.append(i + 1)
            continue
        entries[key] = payload
        good_lines.append(line)
    return {
        "entries": entries,
        "good_lines": good_lines,
        "bad_lines": bad_lines,
        "torn_tail": torn_tail,
    }


def _read_text(path: Path) -> str:
    """Read a journal, surviving non-UTF-8 bitrot.

    Undecodable bytes become U+FFFD replacement characters, which poison
    that line's JSON/CRC so it flows into the normal damaged-line handling
    (torn tail tolerated, other damage raised or salvaged) instead of
    crashing the whole load with ``UnicodeDecodeError``.
    """
    return path.read_bytes().decode("utf-8", errors="replace")


#: Process-wide lock table: resolved lock path -> [file handle, refcount].
#: flock is per open-file-description, so a second open of the same lock
#: file *within one process* would spuriously conflict with itself; journal
#: objects in one process instead share the handle (one process = one
#: writer, which is the property the lock exists to enforce).
_PROCESS_LOCKS: Dict[str, list] = {}


class RunJournal:
    """Append-only JSONL journal of completed run cells."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._entries: Dict[str, dict] = {}
        self._lock_key: Optional[str] = None
        #: appends that failed durably (storage error after bounded retries)
        #: but were kept in memory; the cells re-run on a later resume.
        self.append_errors = 0

    # -- persistence --------------------------------------------------------
    def load(self) -> int:
        """Load journaled cells from disk; returns the number loaded.

        Tolerates a torn last line (a killed append, no final newline);
        raises :class:`JournalError` on damage anywhere else.
        """
        self._entries.clear()
        if not self.path.exists():
            return 0
        scan = scan_journal_lines(_read_text(self.path))
        bad = scan["bad_lines"]
        if bad:
            raise JournalError(
                f"{self.path}: undecodable journal line {bad[0]} (bad lines {bad})"
            )
        self._entries.update(scan["entries"])
        return len(self._entries)

    def recover(self) -> dict:
        """Load the journal, salvaging instead of aborting on damage.

        Where :meth:`load` raises :class:`JournalError` on a bad line
        (strict mode for callers that must not mask corruption), this
        keeps every line that decodes and checksums, heals a torn tail by
        rewriting the file without it, and quarantines a corrupt original
        to ``*.corrupt`` before rewriting the salvaged lines — so one
        damaged record costs one re-run, not the whole sweep.

        Returns an info dict: ``loaded`` (entries kept), ``dropped`` (bad
        lines lost, the torn tail aside), ``torn_tail``, ``quarantined`` (path or
        None), ``rewritten``.
        """
        self._entries.clear()
        info = {
            "loaded": 0,
            "dropped": 0,
            "torn_tail": False,
            "quarantined": None,
            "rewritten": False,
        }
        if not self.path.exists():
            return info
        scan = scan_journal_lines(_read_text(self.path))
        self._entries.update(scan["entries"])
        info["loaded"] = len(self._entries)
        info["torn_tail"] = scan["torn_tail"]
        info["dropped"] = len(scan["bad_lines"])
        if not scan["bad_lines"] and not scan["torn_tail"]:
            return info
        self.acquire_lock()
        if scan["bad_lines"]:
            dest = quarantine(self.path)
            info["quarantined"] = str(dest) if dest else None
            log.warning(
                "%s: %d corrupt journal line(s) %s; original quarantined to %s, "
                "%d salvaged cell(s) kept",
                self.path,
                len(scan["bad_lines"]),
                scan["bad_lines"],
                dest,
                info["loaded"],
            )
        salvaged = "".join(line + "\n" for line in scan["good_lines"])
        try:
            atomic_write_bytes(self.path, salvaged.encode("utf-8"))
            info["rewritten"] = True
        except StorageError as exc:
            log.warning("%s: could not rewrite salvaged journal: %s", self.path, exc)
        return info

    def record(self, key: str, payload: dict) -> None:
        """Append one completed cell as a single durable write.

        The payload is JSON-normalized (so the stored per-line CRC matches
        a load-side recompute bit-for-bit) and the whole line goes down in
        one ``os.write`` via :func:`repro.storage.atomic.append_line` — an
        ENOSPC mid-record is truncated away and retried rather than left as
        a torn tail. A write that still fails after the bounded retries is
        *logged and absorbed* (``append_errors`` counts it): the journal is
        an optimization, and losing one record costs one re-run while
        aborting would cost the sweep.
        """
        self.acquire_lock()
        payload = json.loads(json.dumps(payload, default=str))
        self._entries[key] = payload
        line = json.dumps(
            {"key": key, "payload": payload, "crc": _entry_crc(key, payload)}
        )
        try:
            append_line(self.path, line)
        except StorageError as exc:
            self.append_errors += 1
            log.warning(
                "%s: journal append failed (%s); cell kept in memory only",
                self.path,
                exc,
            )

    def clear(self) -> None:
        """Forget all entries and remove the on-disk file (fresh sweep)."""
        self.acquire_lock()
        self._entries.clear()
        if self.path.exists():
            self.path.unlink()

    # -- single-writer locking ----------------------------------------------
    @property
    def lock_path(self) -> Path:
        """The sidecar lock file guarding this journal."""
        return self.path.with_name(self.path.name + ".lock")

    def acquire_lock(self) -> None:
        """Take (or share) the exclusive writer lock on this journal.

        Raises :class:`JournalError` naming the holder's PID when another
        live *process* already writes here. Idempotent for the holder and
        shared between journal objects of one process; no-op on platforms
        without ``fcntl``. A killed holder releases automatically (flock
        dies with the process).
        """
        if fcntl is None or self._lock_key is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        key = os.path.abspath(self.lock_path)
        entry = _PROCESS_LOCKS.get(key)
        if entry is not None:
            entry[1] += 1
            self._lock_key = key
            return
        for final in (False, True):
            fh = open(self.lock_path, "a+", encoding="utf-8")
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                fh.seek(0)
                holder = fh.read().strip() or "unknown"
                fh.close()
                if not final and self._break_if_stale(holder):
                    continue  # sidecar unlinked: retry on a fresh inode
                raise JournalError(
                    f"{self.path}: journal is locked by another sweep "
                    f"(holder pid {holder}); two writers would interleave "
                    "partial lines — use a separate journal or wait for it"
                ) from None
            fh.seek(0)
            fh.truncate()
            fh.write(str(os.getpid()))
            fh.flush()
            _PROCESS_LOCKS[key] = [fh, 1]
            self._lock_key = key
            return

    def _break_if_stale(self, holder: str) -> bool:
        """Unlink the lock sidecar when its stamped holder is dead.

        The flock itself may still be held by an fd the dead holder's
        orphaned children inherited; removing the sidecar moves new writers
        onto a fresh inode the stale descriptor does not lock. Returns True
        when the lock was broken. An unparseable stamp is treated as live —
        a racing writer stamps its PID an instant after flocking, and
        breaking in that window would admit a second writer.
        """
        try:
            holder_pid = int(holder)
        except ValueError:
            return False
        if pid_alive(holder_pid):
            return False
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass  # another contender broke it first; the retry sorts it out
        return True

    def release_lock(self) -> None:
        """Drop this object's hold on the writer lock; the last holder in
        the process releases it for real. The journal stays readable."""
        key, self._lock_key = self._lock_key, None
        if key is None:
            return
        entry = _PROCESS_LOCKS.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            fh = entry[0]
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            finally:
                fh.close()
                del _PROCESS_LOCKS[key]

    def close(self) -> None:
        """Release the writer lock; alias for context-manager exit."""
        self.release_lock()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release_lock()

    def __del__(self) -> None:
        try:
            self.release_lock()
        except Exception:
            pass

    # -- lookup -------------------------------------------------------------
    def has(self, key: str) -> bool:
        """True when ``key``'s cell has a journaled payload."""
        return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        """The journaled payload for ``key``, or None if absent."""
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

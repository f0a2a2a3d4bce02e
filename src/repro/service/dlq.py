"""Poison-pill dead-letter queue: park identities that kill workers.

A request whose *identity* deterministically crashes or hangs the full
engine is a poison pill: every retry burns a worker, every promotion burns
a waiter's patience, and — because identical requests coalesce — one hot
poison identity can monopolize a shard's restart budget indefinitely. The
supervised executor contains each individual crash; this module contains
the *pattern*.

The front door records a strike per surfaced leader failure
(crash / timeout / stalled-heartbeat / exception / invariant — the
:data:`~repro.harness.errors.FAILURE_KINDS` taxonomy), across retries
*and* across shards (failed leaders promote onto the next shard, so
repeated strikes are evidence the identity, not the host, is at fault).
At the configured threshold the identity is **parked**: a durable
``dlq-entry`` artifact (checksummed via ``repro.storage``, so ``repro
fsck`` audits it like everything else) captures the canonical request,
the refusal reason and the full attempt history, and from then on the
router answers that identity with an immediate machine-readable refusal
(``dlq-parked:<kind>``) instead of feeding it more workers — no waiter
ever hangs on a poison pill.

Operators manage the queue with ``repro dlq list|retry|purge``: *retry*
un-parks an identity (e.g. after an engine fix) so the next submission
simulates again; *purge* drops every entry.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.storage.artifact import load_json_artifact, write_json_artifact
from repro.storage.errors import ArtifactError, StorageError

log = logging.getLogger("repro.dlq")

#: Storage-artifact identity of one parked entry.
DLQ_FORMAT = "dlq-entry"
DLQ_VERSION = 1

#: Stable counter names; the front door's counter map carries them as ``dlq_*``.
DLQ_COUNTERS = ("parked", "retried", "purged")


class DeadLetterQueue:
    """Durable set of parked (refused-by-policy) request identities.

    ``root`` is the directory holding one ``<digest>.json`` artifact per
    parked identity — conventionally ``<result-store>/dlq``. With
    ``root=None`` the queue is in-memory only: parking still protects the
    running service, but does not survive a restart.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else None
        self.counters: Dict[str, int] = {n: 0 for n in DLQ_COUNTERS}
        self._parked: Dict[str, dict] = {}
        if self.root is not None and self.root.is_dir():
            self._load()

    def _load(self) -> None:
        """Re-adopt entries a previous process parked (restart survival).

        An unreadable entry is skipped, not served and not deleted: fsck
        owns damaged-artifact handling; the DLQ only refuses what it can
        still prove was parked.
        """
        for path in sorted(self.root.glob("*.json")):
            try:
                _, doc = load_json_artifact(path, expect=(DLQ_FORMAT, DLQ_VERSION))
            except (ArtifactError, OSError, ValueError) as exc:
                log.warning("%s: unreadable dlq entry skipped (%s)", path, exc)
                continue
            digest = doc.get("identity")
            if isinstance(digest, str) and digest:
                self._parked[digest] = doc

    def _path(self, digest: str) -> Optional[Path]:
        return self.root / f"{digest}.json" if self.root is not None else None

    # -- parking -------------------------------------------------------------
    def park(
        self,
        digest: str,
        request_fields: dict,
        reason: str,
        attempts: List[dict],
    ) -> bool:
        """Park ``digest`` with its refusal reason and attempt history.

        Returns True when newly parked. The durable write is best-effort
        (a failed write still parks in-memory and is counted by the
        storage layer's own telemetry): refusing poison now matters more
        than remembering it across restarts.
        """
        if digest in self._parked:
            return False
        entry = {
            "identity": digest,
            "request": request_fields,
            "reason": reason,
            "attempts": list(attempts),
            "parked_at": time.time(),
        }
        self._parked[digest] = entry
        self.counters["parked"] += 1
        path = self._path(digest)
        if path is not None:
            try:
                write_json_artifact(path, entry, DLQ_FORMAT, DLQ_VERSION)
            except (StorageError, OSError) as exc:
                log.warning("%s: dlq entry not persisted (%s)", path, exc)
        log.warning("identity %s… parked in the DLQ: %s", digest[:12], reason)
        return True

    def is_parked(self, digest: str) -> bool:
        """Whether ``digest`` is currently refused by policy."""
        return digest in self._parked

    def refusal_reason(self, digest: str) -> str:
        """The machine-readable refusal the router answers with."""
        entry = self._parked.get(digest)
        reason = entry.get("reason") if entry else None
        return f"dlq-parked:{reason}" if reason else "dlq-parked"

    # -- management (the `repro dlq` surface) --------------------------------
    def entries(self) -> List[dict]:
        """Every parked entry, digest-sorted (deterministic listings)."""
        return [self._parked[d] for d in sorted(self._parked)]

    def retry(self, digest: str) -> bool:
        """Un-park ``digest`` so its next submission simulates again.

        Idempotent across concurrent managers: an entry another process
        already removed (FileNotFoundError on unlink) still counts as
        successfully retried here.
        """
        entry = self._parked.pop(digest, None)
        path = self._path(digest)
        removed_file = False
        if path is not None:
            try:
                path.unlink()
                removed_file = True
            except FileNotFoundError:
                pass
            except OSError as exc:
                log.warning("%s: dlq entry not removed (%s)", path, exc)
        if entry is None and not removed_file:
            return False
        self.counters["retried"] += 1
        return True

    def purge(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for digest in list(self._parked):
            self._parked.pop(digest, None)
            path = self._path(digest)
            if path is not None:
                try:
                    path.unlink()
                except OSError:
                    pass
            removed += 1
        self.counters["purged"] += removed
        return removed

    def __len__(self) -> int:
        return len(self._parked)

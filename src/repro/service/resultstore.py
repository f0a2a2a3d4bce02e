"""Content-addressed durable result store with crash-safe leases.

At millions-of-users scale, repeat traffic dominates: the same
(mix, policy, seed, window) query arrives again and again, and the paper's
policies are deterministic functions of that tuple. The store turns every
repeat into a disk hit instead of a simulation.

**Addressing.** :meth:`ResultStore.put` files an entry under the digest
of its run's :func:`~repro.harness.runner.run_fields` (the request's
:func:`~repro.service.identity.request_identity`), so an entry's address
and its stored fields cannot disagree. Entries are JSON document artifacts
(embedded ``"artifact"`` metadata block, CRC over the canonical document —
see :func:`repro.storage.artifact.embed_json_artifact`), one file per
result at ``<root>/shard-00/<digest>.json``. Shards never touch the store
(the front door writes every entry), so the one segment does not depend
on the shard count: a store stays warm when a restart changes
``--shards``.

**Recover, don't abort.** A read that fails validation — bitrot, torn
frame, a stored identity that is not the filename (mislabeled content) —
is treated as a *miss*: the damaged file is quarantined to ``*.corrupt`` and the caller
re-simulates. A write that fails after the storage layer's bounded retries
is absorbed and counted (``put_errors``): the store is an optimization,
and losing one entry costs one re-simulation while aborting would cost the
service. Corrupt or stale bytes are **never** served.

**Leases.** Cross-process coalescing uses one lease file per digest at
``<root>/leases/<digest>.lease``, created with ``O_CREAT | O_EXCL`` and
stamped with the holder's PID in a single write. A second front-door that
loses the race waits for the winner's result instead of re-simulating.
Crash safety mirrors the journal-lock protocol: a lease whose stamped
holder PID is dead is *broken* (unlinked) and re-acquired — at runtime by
whoever finds it, and wholesale at service startup via
:meth:`ResultStore.break_stale_leases`, so a crashed service never wedges
its successor. An unparseable stamp is treated as live at runtime (the
racing writer stamps its PID an instant after creating the file) but as
stale during the startup sweep, where the service has not begun admitting
work yet and an orphaned empty lease would otherwise block its digest
forever.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.harness.runner import fields_digest
from repro.storage.artifact import embed_json_artifact, load_json_artifact
from repro.storage.atomic import atomic_write_bytes, pid_alive, quarantine
from repro.storage.errors import ArtifactError, StorageError

log = logging.getLogger("repro.resultstore")

#: Storage-artifact identity of one stored result document.
RESULT_FORMAT = "sim-result"
RESULT_VERSION = 1
_RESULT_FAMILY = (RESULT_FORMAT, RESULT_VERSION)

#: Storage-artifact identity of one divergence-quarantine evidence doc.
DIVERGENCE_FORMAT = "sim-divergence"
DIVERGENCE_VERSION = 1

#: The directory under the store root that holds every entry.
SEGMENT = "shard-00"

#: Lease-file suffix (``repro fsck`` knows it; see storage/fsck.py).
LEASE_SUFFIX = ".lease"

#: Suffix of quarantined divergent entries (evidence, never served).
DIVERGENT_SUFFIX = ".divergent"

#: Integrity lifecycle of a live entry. ``unverified`` — stored as
#: produced, never independently re-executed; ``verified`` — a shadow
#: re-execution on another shard reproduced the same summary digest.
#: ``divergent`` never appears on a live entry: divergence *evicts* the
#: entry into a ``*.divergent`` evidence document (both conflicting
#: payloads preserved), and the digest misses until re-simulated.
INTEGRITY_UNVERIFIED = "unverified"
INTEGRITY_VERIFIED = "verified"
INTEGRITY_STATUSES = (INTEGRITY_UNVERIFIED, INTEGRITY_VERIFIED)

#: Stable counter names; the front door's counter map carries them as ``store_*``.
STORE_COUNTERS = (
    "hits",
    "misses",
    "corrupt_misses",
    "puts",
    "put_errors",
    "verified_marks",
    "divergent_quarantines",
    "integrity_evictions",
    "lease_breaks",
    "stale_leases_broken",
)


class ResultStore:
    """Durable, content-addressed cache of sim results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.entry_dir = self.root / SEGMENT
        self.counters: Dict[str, int] = {name: 0 for name in STORE_COUNTERS}

    # -- layout --------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """The content-addressed file for ``digest``."""
        return self.entry_dir / f"{digest}.json"

    @property
    def lease_dir(self) -> Path:
        """Directory holding the per-digest coalescing lease files."""
        return self.root / "leases"

    def lease_path(self, digest: str) -> Path:
        """The lease file guarding ``digest``'s coalescing group."""
        return self.lease_dir / f"{digest}{LEASE_SUFFIX}"

    # -- entries -------------------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        """The stored result payload for ``digest``, or None on any miss.

        Damage (bitrot, torn frame, checksum mismatch, content that does
        not match its address) quarantines the file and reports a miss —
        the caller re-simulates; bad bytes are never served.
        """
        path = self.path_for(digest)
        try:
            _, doc = load_json_artifact(path, expect=_RESULT_FAMILY)
        except FileNotFoundError:
            self.counters["misses"] += 1
            return None
        except (ArtifactError, OSError, ValueError) as exc:
            self.counters["corrupt_misses"] += 1
            dest = quarantine(path)
            log.warning(
                "%s: unreadable result entry (%s); quarantined to %s, "
                "treating as a miss",
                path, exc, dest,
            )
            return None
        payload = doc.get("payload")
        if doc.get("identity") != digest or not isinstance(payload, dict):
            # Content-address honesty: the document must be the result it
            # is filed under. A mismatch means a mislabeled or tampered
            # entry — quarantine it and miss.
            self.counters["corrupt_misses"] += 1
            dest = quarantine(path)
            log.warning(
                "%s: content-address mismatch (stored identity %r); "
                "quarantined to %s",
                path, doc.get("identity"), dest,
            )
            return None
        if doc.get("integrity", INTEGRITY_UNVERIFIED) not in INTEGRITY_STATUSES:
            # A live entry may only be unverified or verified. Anything
            # else (a stray "divergent", tampering) is untrustworthy.
            self.counters["corrupt_misses"] += 1
            dest = quarantine(path)
            log.warning(
                "%s: invalid integrity status %r; quarantined to %s",
                path, doc.get("integrity"), dest,
            )
            return None
        self.counters["hits"] += 1
        return payload

    def peek(self, digest: str) -> Optional[dict]:
        """The stored payload without counters, quarantine, or validation
        side effects — audit use only (e.g. the chaos-day campaign's
        silent-corruption audit). Never use this to *serve*."""
        try:
            _, doc = load_json_artifact(
                self.path_for(digest), expect=_RESULT_FAMILY
            )
        except (FileNotFoundError, ArtifactError, OSError, ValueError):
            return None
        payload = doc.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(
        self,
        run_fields: dict,
        payload: dict,
        integrity: str = INTEGRITY_UNVERIFIED,
    ) -> bool:
        """Durably store ``payload`` under the digest of ``run_fields``;
        returns success.

        The fields ride inside the document so ``repro fsck`` can re-derive
        the digest and verify the address end-to-end. A failed write
        (ENOSPC past retries, injected fault) is absorbed and counted: one
        lost entry costs one future re-simulation.
        """
        if integrity not in INTEGRITY_STATUSES:
            raise ValueError(
                f"integrity {integrity!r}: must be one of {INTEGRITY_STATUSES}"
            )
        if not self._write(run_fields, payload, integrity):
            return False
        self.counters["puts"] += 1
        return True

    def _write(self, run_fields: dict, payload: dict, integrity: str) -> bool:
        """Atomically write one entry document (fsynced); a failed write
        is absorbed, logged and counted in ``put_errors``."""
        digest = fields_digest(run_fields)
        doc = embed_json_artifact(
            {
                "identity": digest,
                "request": run_fields,
                "payload": payload,
                "integrity": integrity,
            },
            RESULT_FORMAT,
            RESULT_VERSION,
        )
        blob = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        try:
            atomic_write_bytes(self.path_for(digest), blob)
        except StorageError as exc:
            self.counters["put_errors"] += 1
            log.warning("%s: result-store write failed (%s); entry skipped",
                        self.path_for(digest), exc)
            return False
        return True

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_dir.glob("*.json"))

    # -- integrity -----------------------------------------------------------
    def divergent_path(self, digest: str) -> Path:
        """Where ``digest``'s divergence evidence is quarantined."""
        return self.entry_dir / f"{digest}.json{DIVERGENT_SUFFIX}"

    def mark_verified(self, digest: str) -> bool:
        """Promote a live entry ``unverified`` → ``verified`` (a shadow
        re-execution reproduced its digest). Atomic rewrite, counted in
        ``verified_marks`` and not as a put; best-effort — a failed
        promotion leaves a perfectly servable unverified entry. A
        mislabeled entry (fields of another digest) is never re-filed.
        """
        path = self.path_for(digest)
        try:
            _, doc = load_json_artifact(path, expect=_RESULT_FAMILY)
        except (FileNotFoundError, ArtifactError, OSError, ValueError):
            return False
        request = doc.get("request")
        payload = doc.get("payload")
        if not isinstance(request, dict) or not isinstance(payload, dict):
            return False
        if fields_digest(request) != digest:
            return False
        if self._write(request, payload, INTEGRITY_VERIFIED):
            self.counters["verified_marks"] += 1
            return True
        return False

    def quarantine_divergent(
        self,
        run_fields: dict,
        *,
        primary_payload: dict,
        shadow_payload: dict,
        detail: str = "",
    ) -> Optional[Path]:
        """Evict the entry of ``run_fields``' digest and quarantine *both*
        conflicting results.

        The live entry is replaced by a ``*.divergent`` evidence document
        holding the served (primary) payload and the shadow re-execution's
        payload side by side — post-mortem material, never servable (the
        suffix is not content-addressed and every read path ignores it).
        From this call on the digest is a miss until a fresh simulation
        re-stores it. Returns the evidence path, or None when even the
        evidence write failed (the eviction still happens: serving a
        suspect entry is worse than forgetting why it was suspect).
        """
        digest = fields_digest(run_fields)
        evidence = {
            "identity": digest,
            "request": run_fields,
            "primary": primary_payload,
            "shadow": shadow_payload,
            "detail": detail,
        }
        doc = embed_json_artifact(evidence, DIVERGENCE_FORMAT, DIVERGENCE_VERSION)
        blob = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        dest: Optional[Path] = self.divergent_path(digest)
        try:
            atomic_write_bytes(dest, blob)
        except StorageError as exc:
            log.warning("%s: divergence evidence not written (%s)", dest, exc)
            dest = None
        try:
            os.unlink(self.path_for(digest))
        except FileNotFoundError:
            pass  # already evicted (e.g. a racing quarantine) — idempotent
        except OSError as exc:
            log.warning(
                "%s: could not evict divergent entry (%s)",
                self.path_for(digest), exc,
            )
        self.counters["divergent_quarantines"] += 1
        log.warning(
            "%s: divergent result quarantined (%s); digest evicted",
            digest[:12], detail or "no detail",
        )
        return dest

    def evict(self, digest: str) -> bool:
        """Drop ``digest``'s live entry without quarantine or evidence.

        The fail-safe path for an entry that *might* be wrong but was
        never proven so — e.g. a sampled result whose shadow re-execution
        could not answer (shed under load, refused while draining). The
        next request simply re-simulates; nothing suspect stays servable.
        Returns True when an entry was removed.
        """
        try:
            os.unlink(self.path_for(digest))
        except FileNotFoundError:
            return False
        except OSError as exc:
            log.warning("%s: entry not evicted (%s)", self.path_for(digest), exc)
            return False
        self.counters["integrity_evictions"] += 1
        return True

    def integrity_summary(self) -> Dict[str, int]:
        """Integrity census of the whole store: live entries per status
        (plus ``invalid`` for unreadable/garbage statuses) and the count
        of quarantined ``*.divergent`` evidence files. The chaos-day
        contract requires ``divergent_live == 0`` — divergence must always
        have evicted."""
        out = {
            INTEGRITY_UNVERIFIED: 0,
            INTEGRITY_VERIFIED: 0,
            "invalid": 0,
            "divergent_live": 0,
            "divergent_evidence": 0,
        }
        out["divergent_evidence"] = sum(
            1 for _ in self.entry_dir.glob(f"*{DIVERGENT_SUFFIX}")
        )
        for path in sorted(self.entry_dir.glob("*.json")):
            try:
                _, doc = load_json_artifact(path, expect=_RESULT_FAMILY)
            except (ArtifactError, OSError, ValueError):
                out["invalid"] += 1
                continue
            status = doc.get("integrity", INTEGRITY_UNVERIFIED)
            if status in INTEGRITY_STATUSES:
                out[status] += 1
            elif status == "divergent":
                out["divergent_live"] += 1
            else:
                out["invalid"] += 1
        return out

    # -- leases --------------------------------------------------------------
    def acquire_lease(self, digest: str) -> bool:
        """Try to become the leader for ``digest``; True when acquired.

        A conflicting lease whose stamped holder is dead is broken
        (unlinked — fresh file, fresh owner) and the acquisition retried
        once, mirroring the journal's stale-lock breaking. A conflict with
        a live holder returns False: the caller should coalesce on the
        remote leader's eventual result instead of duplicating its work.
        """
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(digest)
        for final in (False, True):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                holder = self.lease_holder(digest)
                if final or holder is None or pid_alive(holder):
                    return False
                self.break_lease(digest)
                continue
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            finally:
                os.close(fd)
            return True
        return False  # pragma: no cover — loop always returns

    def lease_holder(self, digest: str) -> Optional[int]:
        """The PID stamped on ``digest``'s lease, or None (absent lease or
        a not-yet-stamped one — treated as live by runtime callers)."""
        try:
            stamp = self.lease_path(digest).read_text(encoding="ascii").strip()
            return int(stamp)
        except (OSError, ValueError):
            return None

    def lease_stale(self, digest: str) -> bool:
        """Whether ``digest``'s lease exists but its stamped holder is dead.

        An unstamped/unparseable lease is *not* stale here: a racing
        acquirer stamps its PID an instant after creating the file.
        """
        holder = self.lease_holder(digest)
        return holder is not None and not pid_alive(holder)

    def break_lease(self, digest: str) -> bool:
        """Unlink ``digest``'s lease (dead or stalled leader); True if
        something was removed. The next acquirer becomes the new leader."""
        try:
            os.unlink(self.lease_path(digest))
        except FileNotFoundError:
            return False
        except OSError:
            return False
        self.counters["lease_breaks"] += 1
        return True

    def release_lease(self, digest: str) -> None:
        """Drop a lease this process holds (idempotent, best-effort)."""
        try:
            os.unlink(self.lease_path(digest))
        except OSError:
            pass

    def break_stale_leases(self) -> int:
        """Startup sweep: unlink every lease held by a dead PID.

        A service that crashed mid-simulation leaves its leases behind;
        without this sweep a restart would treat every one of them as a
        live remote leader and wait out the stall timeout before serving
        those digests. Unparseable stamps are broken too — at startup
        nothing of ours is mid-acquisition, and a crash between lease
        creation and PID stamping would otherwise block its digest
        forever. Returns the number of leases broken.

        Concurrent-sweeper safe: two front doors restarting over one
        store race this sweep file-by-file. A lease that vanishes between
        the directory scan and the unlink (FileNotFoundError at either
        step) was broken by the other sweeper — that is *success* for
        both of them (the dead lease is gone), counted by exactly the one
        whose unlink landed. Neither sweeper ever raises.
        """
        if not self.lease_dir.is_dir():
            return 0
        broken = 0
        for path in sorted(self.lease_dir.glob(f"*{LEASE_SUFFIX}")):
            try:
                stamp = path.read_text(encoding="ascii").strip()
                holder: Optional[int] = int(stamp)
            except FileNotFoundError:
                continue  # a concurrent sweeper already broke it
            except (OSError, ValueError):
                holder = None
            if holder is not None and pid_alive(holder):
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # lost the unlink race: idempotent success, not ours to count
            except OSError as exc:
                log.warning("%s: stale lease not removed (%s)", path, exc)
                continue
            broken += 1
            log.warning(
                "%s: broke stale result-store lease (holder %s dead)",
                path, stamp if holder is not None else "unstamped",
            )
        self.counters["stale_leases_broken"] += broken
        return broken

"""Artifact-tree audit and repair (the ``repro fsck`` engine).

Scans a results/store/journal tree, classifies every artifact file,
repairs what can be repaired *safely* (a repair never loses data that
validated), and quarantines the rest to ``*.corrupt`` so sweeps regenerate
instead of re-reading bad bytes. Classification taxonomy:

* ``healthy`` — validates against its checksums as-is;
* ``migratable`` — a plain JSON document without the embedded artifact
  block (e.g. a committed baseline): intact and loadable, and left as it
  is, because fsck must not dirty checked-in files;
* ``torn-tail`` — a journal whose final line is truncated (a mid-write
  kill leaves it without its newline); repair truncates the tail, keeping
  every complete record;
* ``corrupt`` — fails validation in a way no repair can trust
  (undecodable JSON, checksum mismatch, an artifact block under a damaged
  key, an undecodable or CRC-less journal record anywhere but a torn
  tail); repair quarantines the file (and, for journals, salvages the
  records that still validate into a rewritten journal);
* ``stale-temp`` — an orphaned atomic-write temp file (a crash between
  write and rename); repair removes it.

Result-store entries (``sim-result`` documents) additionally have their
content address verified: the digest re-derived from the embedded
canonical request must match the stored identity *and* the filename — a
checksum-valid but mislabeled entry is corrupt, because serving it would
answer the wrong simulation. An artifact of a known format (result entry,
behaviour profile, chaos campaign, traffic recording, dead-letter entry,
divergence record) whose version its reader does not read is corrupt too,
as is a profile its reader refuses. Coalescing leases (``*.lease``) held
by dead PIDs classify as ``stale-temp`` and are removed; live ones are
left alone.

Files that are not artifacts (locks, previous ``*.corrupt`` quarantines,
unrelated extensions) are left untouched. The report is machine-readable
(:meth:`FsckReport.to_dict`) and :attr:`FsckReport.exit_code` is non-zero
iff this run quarantined something — "fsck found real damage" is scriptable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.storage.artifact import check_family, parse_json_artifact
from repro.storage.atomic import atomic_write_bytes, quarantine
from repro.storage.errors import ArtifactError

#: Classification statuses, in severity order (worst first).
STATUSES = (
    "corrupt",
    "divergent",
    "torn-tail",
    "stale-temp",
    "migratable",
    "healthy",
)


@dataclass
class FsckEntry:
    """One scanned file's classification and the action taken on it.

    ``action`` is one of ``none`` (healthy, migratable, or dry-run),
    ``truncated``, ``quarantined``, ``removed`` (stale temp), or
    ``failed`` (a repair itself hit an I/O error).
    """

    path: str
    status: str
    action: str = "none"
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "path": self.path,
            "status": self.status,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass
class FsckReport:
    """Outcome of one tree scan."""

    root: str
    repair: bool
    entries: List[FsckEntry] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        """Entries per status."""
        out: Dict[str, int] = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    @property
    def quarantined(self) -> List[FsckEntry]:
        """Entries this run moved aside to ``*.corrupt``."""
        return [e for e in self.entries if e.action == "quarantined"]

    @property
    def exit_code(self) -> int:
        """Non-zero iff this run quarantined at least one file — the
        scriptable "real damage was found" signal. Repairable damage
        (torn tails, stale temps) exits zero."""
        return 1 if self.quarantined else 0

    def to_dict(self) -> dict:
        """Machine-readable report."""
        return {
            "root": self.root,
            "repair": self.repair,
            "counts": self.counts,
            "exit_code": self.exit_code,
            "entries": [e.to_dict() for e in self.entries],
        }

    def format_text(self) -> str:
        """Terminal rendering: one line per non-healthy file plus totals."""
        lines = [f"repro fsck {self.root} ({'repair' if self.repair else 'dry-run'})"]
        for e in self.entries:
            if e.status == "healthy":
                continue
            detail = f" — {e.detail}" if e.detail else ""
            lines.append(f"  [{e.status}] {e.path} -> {e.action}{detail}")
        counts = self.counts
        total = sum(counts.values())
        summary = ", ".join(f"{counts[s]} {s}" for s in STATUSES if s in counts)
        lines.append(f"{total} artifact(s): {summary or 'none found'}")
        return "\n".join(lines)


def _probe_jsonl(path: Path, blob: bytes, repair: bool) -> FsckEntry:
    """Classify (and optionally repair) a JSONL run journal."""
    from repro.harness.journal import scan_journal_lines

    # Replacement-decode: a bitrotted byte poisons only its own line's
    # JSON/CRC, so the rest of the journal still salvages.
    scan = scan_journal_lines(blob.decode("utf-8", errors="replace"))
    rewritten = "".join(line + "\n" for line in scan["good_lines"])
    if scan["bad_lines"]:
        detail = (
            f"{len(scan['bad_lines'])} corrupt line(s) {scan['bad_lines']}, "
            f"{len(scan['entries'])} record(s) salvageable"
        )
        if not repair:
            return FsckEntry(str(path), "corrupt", "none", detail)
        dest = quarantine(path)
        if dest is None:
            return FsckEntry(str(path), "corrupt", "failed", detail)
        atomic_write_bytes(path, rewritten.encode("utf-8"))
        return FsckEntry(
            str(path), "corrupt", "quarantined",
            f"{detail}; original at {dest.name}, salvaged journal rewritten",
        )
    if scan["torn_tail"]:
        detail = f"torn final line, {len(scan['entries'])} complete record(s)"
        if not repair:
            return FsckEntry(str(path), "torn-tail", "none", detail)
        atomic_write_bytes(path, rewritten.encode("utf-8"))
        return FsckEntry(str(path), "torn-tail", "truncated", detail)
    return FsckEntry(str(path), "healthy")


def _probe_json(path: Path, blob: bytes, repair: bool) -> FsckEntry:
    """Classify a JSON document artifact (embedded-metadata scheme)."""
    try:
        meta, payload = parse_json_artifact(blob)
    except ArtifactError as exc:
        return _quarantine_entry(path, "corrupt", str(exc), repair)
    if meta is None:
        # Plain JSON (e.g. a committed baseline): intact and loadable,
        # deliberately NOT rewritten — fsck must not dirty checked-in files.
        return FsckEntry(str(path), "migratable", "none", "plain JSON (no artifact block)")
    families = _json_families()
    if meta.get("format") not in families:
        return FsckEntry(str(path), "healthy")
    version, probe = families[meta["format"]]
    try:
        check_family(meta, (meta["format"], version))
    except ArtifactError as exc:
        # The reader of this family refuses it (a schema it does not know,
        # or a damaged version: the CRC does not cover the block).
        return _quarantine_entry(path, "corrupt", str(exc), repair)
    return probe(path, payload, repair) if probe else FsckEntry(str(path), "healthy")


def _json_families() -> Dict[str, Tuple[int, Optional[Callable]]]:
    """Each JSON artifact format → the version its reader reads, and the
    probe that checks the content beyond checksum and version (None when
    those are the whole check), from the constants the readers use."""
    from repro.behavior.profile import PROFILE_FORMAT, PROFILE_VERSION
    from repro.harness.chaosday import CAMPAIGN_FORMAT, CAMPAIGN_VERSION
    from repro.service.dlq import DLQ_FORMAT, DLQ_VERSION
    from repro.service.loadgen import RECORDING_FORMAT, RECORDING_VERSION
    from repro.service.resultstore import (
        DIVERGENCE_FORMAT,
        DIVERGENCE_VERSION,
        RESULT_FORMAT,
        RESULT_VERSION,
    )

    return {
        RESULT_FORMAT: (RESULT_VERSION, _probe_sim_result),
        PROFILE_FORMAT: (PROFILE_VERSION, _probe_behavior_profile),
        CAMPAIGN_FORMAT: (CAMPAIGN_VERSION, None),
        RECORDING_FORMAT: (RECORDING_VERSION, None),
        DLQ_FORMAT: (DLQ_VERSION, None),
        DIVERGENCE_FORMAT: (DIVERGENCE_VERSION, None),
    }


def _probe_sim_result(path: Path, payload: dict, repair: bool) -> FsckEntry:
    """Verify a result-store entry's content address end-to-end.

    The CRC already proved the bytes are what the writer wrote; this
    proves the writer filed them honestly: the digest re-derived from the
    embedded canonical request must match both the stored ``identity``
    and the filename stem. A mismatch is a mislabeled (or tampered) entry
    — served, it would answer the *wrong* simulation with a perfectly
    valid checksum — so it is quarantined as corrupt.
    """
    from repro.harness.runner import fields_digest
    from repro.service.resultstore import INTEGRITY_STATUSES

    stored = payload.get("identity")
    request = payload.get("request")
    if not isinstance(stored, str) or not isinstance(request, dict):
        return _quarantine_entry(
            path, "corrupt", "sim-result missing identity/request fields", repair
        )
    derived = fields_digest(request)
    if derived != stored:
        return _quarantine_entry(
            path,
            "corrupt",
            f"content-address mismatch: stored identity {stored[:12]}… but "
            f"request digests to {derived[:12]}…",
            repair,
        )
    if path.stem != stored:
        return _quarantine_entry(
            path,
            "corrupt",
            f"filed under {path.stem[:12]}… but contains result {stored[:12]}…",
            repair,
        )
    if not isinstance(payload.get("payload"), dict):
        return _quarantine_entry(
            path, "corrupt", "sim-result payload is not an object", repair
        )
    integrity = payload.get("integrity", "unverified")
    if integrity not in INTEGRITY_STATUSES:
        # A live entry carrying any other integrity marking (including a
        # hand-edited "divergent") must never be served: quarantine it, so
        # "fsck exits 0" implies "no divergent-marked entry can be served".
        return _quarantine_entry(
            path,
            "corrupt",
            f"sim-result integrity status {integrity!r} is not servable",
            repair,
        )
    return FsckEntry(str(path), "healthy")


def _probe_behavior_profile(path: Path, payload: dict, repair: bool) -> FsckEntry:
    """Verify a behaviour profile's structure beyond its checksum: a
    profile that :meth:`BehaviorProfile.from_payload
    <repro.behavior.profile.BehaviorProfile.from_payload>` refuses would
    poison every drift verdict computed from it, so it is quarantined."""
    from repro.behavior.profile import BehaviorProfile

    try:
        BehaviorProfile.from_payload(payload)
    except ValueError as exc:
        return _quarantine_entry(path, "corrupt", str(exc), repair)
    return FsckEntry(str(path), "healthy")


def _probe_lease(path: Path, repair: bool) -> Optional[FsckEntry]:
    """Classify a result-store coalescing lease.

    A lease stamped with a live PID is working state, not an artifact
    problem — left untouched, like a ``.lock``. One stamped with a dead
    PID is leftover from a crashed leader: classified ``stale-temp`` and
    removed on repair (the store's own startup sweep does the same; fsck
    covers stores no service has reopened yet). An unparseable stamp is
    left alone — a racing acquirer writes its PID an instant after
    creating the file, and fsck must never break a live acquisition.
    """
    from repro.storage.atomic import pid_alive

    try:
        holder = int(path.read_text(encoding="ascii").strip())
    except (OSError, ValueError):
        return None
    if pid_alive(holder):
        return None
    if not repair:
        return FsckEntry(
            str(path), "stale-temp", "none", f"lease holder {holder} is dead"
        )
    try:
        path.unlink()
        action = "removed"
    except OSError:
        action = "failed"
    return FsckEntry(
        str(path), "stale-temp", action, f"lease holder {holder} is dead"
    )


def _quarantine_entry(path: Path, status: str, detail: str, repair: bool) -> FsckEntry:
    """Build the entry for a file that must be moved aside."""
    if not repair:
        return FsckEntry(str(path), status, "none", detail)
    dest = quarantine(path)
    if dest is None:
        return FsckEntry(str(path), status, "failed", detail)
    return FsckEntry(str(path), status, "quarantined", f"{detail}; moved to {dest.name}")


def fsck_file(path: Union[str, Path], repair: bool = True) -> Optional[FsckEntry]:
    """Classify (and optionally repair) one file; None when not an artifact.

    Artifacts are ``.jsonl`` run journals and ``.json`` documents; any
    other suffix is out of scope.
    """
    path = Path(path)
    name = path.name
    if name.endswith(".lock") or ".corrupt" in name:
        return None  # locks and existing quarantine evidence: not ours to touch
    if name.endswith(".divergent"):
        # Shadow-verification divergence evidence: already quarantined by
        # the verifier (the live entry was evicted), kept for diagnosis.
        # Reported so operators see it, but it is contained damage — no
        # action, and it does not fail the fsck run.
        return FsckEntry(
            str(path),
            "divergent",
            "none",
            "quarantined divergent result (verification evidence)",
        )
    if name.endswith(".lease"):
        return _probe_lease(path, repair)
    if ".tmp." in name:
        if repair:
            try:
                path.unlink()
                action = "removed"
            except OSError:
                action = "failed"
        else:
            action = "none"
        return FsckEntry(str(path), "stale-temp", action, "orphaned atomic-write temp")
    if path.suffix not in (".jsonl", ".json"):
        return None  # not an artifact: out of scope
    try:
        blob = path.read_bytes()
    except OSError as exc:
        return FsckEntry(str(path), "corrupt", "failed", f"unreadable: {exc}")
    if path.suffix == ".jsonl":
        return _probe_jsonl(path, blob, repair)
    return _probe_json(path, blob, repair)


def fsck_tree(root: Union[str, Path], repair: bool = True) -> FsckReport:
    """Scan a tree, classify every artifact, repair/quarantine per policy.

    With ``repair=False`` (dry run) nothing on disk changes; the report
    shows what a repair run *would* do. Scan order is sorted for
    deterministic reports.
    """
    root = Path(root)
    report = FsckReport(root=str(root), repair=repair)
    paths = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
    for path in paths:
        entry = fsck_file(path, repair=repair)
        if entry is not None:
            report.entries.append(entry)
    return report

"""Durable profile store: CRC-versioned artifacts plus a baseline pointer.

One directory, one profile per ``<profile_id>.json`` — a greppable JSON
document carrying the embedded ``"artifact"`` metadata block (format
``behaviour-profile``), written atomically through ``repro.storage``. The
baseline designation is a separate tiny ``BASELINE`` pointer file holding
a profile id: designating a new baseline never rewrites (or re-checksums)
any profile artifact, and ``repro fsck`` audits the profiles like every
other artifact while ignoring the pointer (not an artifact).

The store also hosts the import path: :meth:`ProfileStore.import_report`
converts a ``chaos-campaign`` report into a behaviour profile (or
re-imports a profile under a new label), so a campaign run elsewhere
becomes baseline-comparable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.behavior.profile import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    BehaviorProfile,
    profile_from_campaign,
)
from repro.storage.artifact import (
    check_family,
    load_json_artifact,
    write_json_artifact,
)
from repro.storage.atomic import atomic_write_bytes
from repro.storage.errors import ArtifactError

#: Pointer-file name; deliberately not ``*.json`` so fsck ignores it.
BASELINE_POINTER = "BASELINE"


def load_profile(path: Union[str, Path]) -> BehaviorProfile:
    """Load one profile artifact (checksummed or plain JSON).

    Raises :class:`~repro.storage.errors.ArtifactError` on corruption or
    a foreign format or version, ValueError on a structurally damaged
    payload.
    """
    meta, payload = load_json_artifact(path)
    if meta is not None:
        try:
            check_family(meta, (PROFILE_FORMAT, PROFILE_VERSION))
        except ArtifactError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return BehaviorProfile.from_payload(payload)


class ProfileStore:
    """Directory of behaviour-profile artifacts with one baseline."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------------
    def path_for(self, profile_id: str) -> Path:
        """Where ``profile_id`` lives (or would live) on disk."""
        return self.root / f"{profile_id}.json"

    # -- persistence ---------------------------------------------------------
    def save(self, profile: BehaviorProfile) -> str:
        """Write ``profile`` as an artifact; returns its id (idempotent:
        the id is content-addressed, so re-saving identical behaviour
        overwrites the same file)."""
        profile_id = profile.profile_id
        write_json_artifact(
            self.path_for(profile_id), profile.to_payload(),
            PROFILE_FORMAT, PROFILE_VERSION,
        )
        return profile_id

    def load(self, profile_id: str) -> BehaviorProfile:
        """Load one stored profile by id."""
        path = self.path_for(profile_id)
        if not path.exists():
            raise FileNotFoundError(f"no profile {profile_id!r} in {self.root}")
        return load_profile(path)

    def list_profiles(self) -> List[Dict[str, object]]:
        """Stable listing: id, label, source, metric count, baseline flag.

        Unloadable files are listed with an ``error`` instead of hiding
        damage (fsck is the repair tool; the listing is the inventory).
        """
        baseline = self.baseline_id()
        out: List[Dict[str, object]] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*.json")):
            entry: Dict[str, object] = {"id": path.stem}
            try:
                profile = load_profile(path)
            except (ArtifactError, ValueError, OSError) as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                entry.update(
                    label=profile.label,
                    source=profile.source,
                    metrics=len(profile.metrics),
                    seed=profile.identity.get("seed"),
                    commit=str(profile.identity.get("commit", ""))[:12],
                )
            entry["baseline"] = path.stem == baseline
            out.append(entry)
        return out

    # -- baseline designation ------------------------------------------------
    def set_baseline(self, profile_id: str) -> None:
        """Point the store's baseline at ``profile_id`` (must exist)."""
        if not self.path_for(profile_id).exists():
            raise FileNotFoundError(f"no profile {profile_id!r} in {self.root}")
        atomic_write_bytes(
            self.root / BASELINE_POINTER, (profile_id + "\n").encode("ascii")
        )

    def baseline_id(self) -> Optional[str]:
        """The designated baseline's id, or None when unset."""
        try:
            text = (self.root / BASELINE_POINTER).read_text("ascii").strip()
        except OSError:
            return None
        return text or None

    def load_baseline(self) -> Optional[BehaviorProfile]:
        """The designated baseline, or None when unset / missing."""
        profile_id = self.baseline_id()
        if profile_id is None:
            return None
        try:
            return self.load(profile_id)
        except (FileNotFoundError, ArtifactError, ValueError):
            return None

    # -- import --------------------------------------------------------------
    def import_report(
        self, path: Union[str, Path], label: Optional[str] = None
    ) -> str:
        """Import a report as a behaviour profile; returns the id.

        Recognizes ``chaos-campaign`` reports and existing behaviour
        profiles (re-import). Anything else raises ValueError.
        """
        from repro.harness.chaosday import CAMPAIGN_FORMAT, CAMPAIGN_VERSION

        path = Path(path)
        meta, payload = load_json_artifact(path)
        fmt = (meta or {}).get("format")
        default_label = path.stem.lower()
        if fmt == PROFILE_FORMAT or payload.get("kind") == PROFILE_FORMAT:
            if meta is not None:
                check_family(meta, (PROFILE_FORMAT, PROFILE_VERSION))
            profile = BehaviorProfile.from_payload(payload)
            if label is not None and label != profile.label:
                profile = BehaviorProfile(
                    label=label,
                    source=profile.source,
                    metrics=profile.metrics,
                    identity=profile.identity,
                    window=profile.window,
                )
        elif fmt == CAMPAIGN_FORMAT or "contract" in payload:
            if meta is not None:
                check_family(meta, (CAMPAIGN_FORMAT, CAMPAIGN_VERSION))
            profile = profile_from_campaign(
                payload, label or default_label, source="imported"
            )
        else:
            raise ValueError(f"{path}: not a campaign report or profile")
        return self.save(profile)

"""CI gates over committed artifacts, reported as mismatches.

Two gates remain, and CI runs both:

* :func:`verify_campaign` re-reads a chaos-day ``chaos-campaign`` report
  and turns every violated clause of its drain contract (and, when the
  campaign ran the integrity layer, of its verification audit) into a
  :class:`Mismatch`;
* :func:`verify_profile` compares a behaviour profile with a committed
  baseline through :func:`repro.behavior.drift.compute_drift` and turns every
  drifting metric into a :class:`Mismatch`.

Both return a :class:`RegressionReport`, whose ``ok`` is the verdict and
whose mismatches are the readable output a failed CI step prints.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import List, Union


@dataclass(frozen=True)
class Mismatch:
    """One failed check: the value a gate expected and what it found."""

    file: str
    path: str
    expected: object
    actual: object
    kind: str  # "value" | "missing"

    def __str__(self) -> str:
        return f"{self.file}:{self.path} [{self.kind}] expected {self.expected!r}, got {self.actual!r}"


@dataclass
class RegressionReport:
    """Outcome of one gate: ``ok`` iff nothing mismatched."""

    mismatches: List[Mismatch] = field(default_factory=list)
    files_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return f"OK: {self.files_compared} file(s) pass the gate"
        return (f"{len(self.mismatches)} mismatches across "
                f"{len({m.file for m in self.mismatches})} files; first: {self.mismatches[0]}")


def verify_campaign(path: Union[str, pathlib.Path]) -> RegressionReport:
    """Gate a chaos-day campaign report: the drain contract as mismatches.

    Loads a ``chaos-campaign`` artifact (checksum verified by the storage
    layer — a tampered or torn report fails here, not silently) and turns
    every violated clause of the contract into a :class:`Mismatch`, so CI
    fails the build with readable output. Clauses checked: campaign exit
    code 0, contract ``ok``, zero unaccounted requests, zero reasonless
    refusals, and an fsck pass that quarantined nothing. Campaigns that
    ran the integrity layer (a ``verification`` block is present)
    additionally must show a passing audit: zero uncaught corruption
    events and zero surviving divergent entries.
    """
    from repro.harness.chaosday import CAMPAIGN_FORMAT, CAMPAIGN_VERSION
    from repro.storage.artifact import load_json_artifact
    from repro.storage.errors import ArtifactError

    path = pathlib.Path(path)
    report = RegressionReport()
    name = path.name
    try:
        _, doc = load_json_artifact(path, expect=(CAMPAIGN_FORMAT, CAMPAIGN_VERSION))
    except (OSError, ArtifactError, ValueError) as exc:
        report.mismatches.append(
            Mismatch(name, "<file>", "loadable chaos-campaign artifact",
                     f"{type(exc).__name__}: {exc}", "missing")
        )
        return report
    report.files_compared = 1
    contract = doc.get("contract", {})
    checks = (
        ("$.exit_code", 0, doc.get("exit_code")),
        ("$.contract.ok", True, contract.get("ok")),
        ("$.contract.unaccounted", 0, contract.get("unaccounted")),
        ("$.contract.refusals_without_reason", 0,
         contract.get("refusals_without_reason")),
        ("$.fsck.exit_code", 0, doc.get("fsck", {}).get("exit_code")),
    )
    for where, expected, actual in checks:
        if actual != expected:
            report.mismatches.append(
                Mismatch(name, where, expected, actual, "value")
            )
    audit = doc.get("verification")
    if audit is not None:
        audit_checks = (
            ("$.verification.ok", True, audit.get("ok")),
            ("$.verification.uncaught", 0, len(audit.get("uncaught", []))),
            ("$.verification.live_divergent", 0, audit.get("live_divergent")),
        )
        for where, expected, actual in audit_checks:
            if actual != expected:
                report.mismatches.append(
                    Mismatch(name, where, expected, actual, "value")
                )
    answered = contract.get("answered")
    submitted = contract.get("submitted")
    if answered != submitted:
        report.mismatches.append(
            Mismatch(name, "$.contract.answered", submitted, answered, "value")
        )
    return report


def verify_profile(
    path: Union[str, pathlib.Path],
    baseline_path: Union[str, pathlib.Path],
    fail_on_warn: bool = False,
) -> RegressionReport:
    """Gate a behaviour profile against a baseline profile: drift as
    mismatches.

    Loads both ``behaviour-profile`` artifacts (checksum verified by the
    storage layer), computes structured drift with the default
    tolerances of :class:`~repro.behavior.drift.DriftConfig`, and turns
    every drifting metric into a :class:`Mismatch` so CI fails the build
    with readable output. ``warn`` metrics only fail when ``fail_on_warn``
    is set; metrics *missing* from the current profile fail (the behaviour
    stopped being measured); *extra* metrics never fail (future PRs may add
    telemetry without breaking the gate). When the baseline names its
    ``config_digest``, a capture with another digest or none fails as
    ``$.identity.config_digest``: it measured a different configuration.
    """
    from repro.behavior.drift import compute_drift
    from repro.behavior.store import load_profile
    from repro.storage.errors import ArtifactError

    report = RegressionReport()
    name = pathlib.Path(path).name
    sides = {}
    for role, p in (("baseline", baseline_path), ("current", path)):
        try:
            sides[role] = load_profile(p)
        except (OSError, ArtifactError, ValueError) as exc:
            report.mismatches.append(
                Mismatch(pathlib.Path(p).name, "<file>",
                         f"loadable behaviour-profile ({role})",
                         f"{type(exc).__name__}: {exc}", "missing")
            )
    if report.mismatches:
        return report
    drift = compute_drift(sides["baseline"], sides["current"])
    report.files_compared = 1
    want = sides["baseline"].identity.get("config_digest")
    got = sides["current"].identity.get("config_digest")
    if want is not None and got != want:
        report.mismatches.append(
            Mismatch(name, "$.identity.config_digest", want, got,
                     "missing" if got is None else "value")
        )
    for metric in drift.metrics:
        bad = metric.verdict == "drift" or (
            fail_on_warn and metric.verdict == "warn"
        )
        if bad:
            report.mismatches.append(
                Mismatch(name, f"$.metrics.{metric.metric}",
                         metric.baseline, metric.current, "value")
            )
    for missing in drift.missing:
        report.mismatches.append(
            Mismatch(name, f"$.metrics.{missing}",
                     sides["baseline"].metrics[missing], None, "missing")
        )
    return report

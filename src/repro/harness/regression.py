"""Golden-result regression checking.

The benchmark suite writes every experiment's series to ``results/*.json``.
This module turns those files into a regression harness: snapshot a known-
good state (`save_goldens`), then compare future runs against it with
per-metric relative tolerances (`compare_to_goldens`) — the standard
workflow for keeping a simulator's behaviour pinned while refactoring.

Comparison semantics: numbers compare within tolerance, strings and bools
exactly; containers recurse; missing/extra keys are reported. Integers that
are *counts* (switches, fills) use the same relative tolerance with an
absolute floor so small counts don't flap.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

Number = Union[int, float]


@dataclass(frozen=True)
class Mismatch:
    """One divergence from the golden state."""

    file: str
    path: str
    expected: object
    actual: object
    kind: str  # "value" | "missing" | "extra" | "type"

    def __str__(self) -> str:
        return f"{self.file}:{self.path} [{self.kind}] expected {self.expected!r}, got {self.actual!r}"


@dataclass
class RegressionReport:
    """Outcome of one goldens comparison."""

    mismatches: List[Mismatch] = field(default_factory=list)
    files_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return f"OK: {self.files_compared} result files match the goldens"
        return (f"{len(self.mismatches)} mismatches across "
                f"{len({m.file for m in self.mismatches})} files; first: {self.mismatches[0]}")


def _compare(
    expected,
    actual,
    rel_tol: float,
    abs_floor: float,
    file: str,
    path: str,
    out: List[Mismatch],
) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in expected:
            if key not in actual:
                out.append(Mismatch(file, f"{path}.{key}", expected[key], None, "missing"))
            else:
                _compare(expected[key], actual[key], rel_tol, abs_floor, file, f"{path}.{key}", out)
        for key in actual:
            if key not in expected:
                out.append(Mismatch(file, f"{path}.{key}", None, actual[key], "extra"))
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(Mismatch(file, f"{path}.len", len(expected), len(actual), "value"))
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, rel_tol, abs_floor, file, f"{path}[{i}]", out)
        return
    if isinstance(expected, bool) or isinstance(actual, bool):
        if expected != actual:
            out.append(Mismatch(file, path, expected, actual, "value"))
        return
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        scale = max(abs(expected), abs(actual), abs_floor)
        if abs(expected - actual) > rel_tol * scale:
            out.append(Mismatch(file, path, expected, actual, "value"))
        return
    if type(expected) is not type(actual):
        out.append(Mismatch(file, path, expected, actual, "type"))
        return
    if expected != actual:
        out.append(Mismatch(file, path, expected, actual, "value"))


def save_goldens(
    results_dir: Union[str, pathlib.Path],
    goldens_dir: Union[str, pathlib.Path],
) -> int:
    """Snapshot every ``results/*.json`` into the goldens directory.

    Returns the number of files captured.
    """
    results = pathlib.Path(results_dir)
    goldens = pathlib.Path(goldens_dir)
    goldens.mkdir(parents=True, exist_ok=True)
    count = 0
    for src in sorted(results.glob("*.json")):
        (goldens / src.name).write_text(src.read_text())
        count += 1
    return count


def verify_campaign(path: Union[str, pathlib.Path]) -> RegressionReport:
    """Gate a chaos-day campaign report: the drain contract as mismatches.

    Loads a ``chaos-campaign`` artifact (checksum verified by the storage
    layer — a tampered or torn report fails here, not silently) and turns
    every violated clause of the contract into a :class:`Mismatch`, so CI
    fails the build with the same machinery (and the same readable output)
    the goldens gate uses. Clauses checked: campaign exit code 0, contract
    ``ok``, zero unaccounted requests, zero reasonless refusals, and an
    fsck pass that quarantined nothing. Campaigns that ran the integrity
    layer (a ``verification`` block is present) additionally must show a
    passing audit: zero uncaught corruption events and zero surviving
    divergent entries.
    """
    from repro.storage import ArtifactError, load_json_artifact

    path = pathlib.Path(path)
    report = RegressionReport()
    name = path.name
    try:
        _, doc = load_json_artifact(path, expect_format="chaos-campaign")
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
    rel_tol: Optional[float] = None,
    abs_floor: Optional[float] = None,
    ignore: tuple = (),
    fail_on_warn: bool = False,
) -> RegressionReport:
    """Gate a behaviour profile against a baseline profile: drift as
    mismatches.

    Loads both ``behaviour-profile`` artifacts (checksum verified by the
    storage layer), computes structured drift with the default
    tolerances of :class:`~repro.behavior.drift.DriftConfig`, and turns
    every drifting metric into a :class:`Mismatch` so CI fails the build
    with the same machinery the goldens gate uses. ``warn`` metrics only
    fail when ``fail_on_warn`` is set; metrics *missing* from the current
    profile fail (the behaviour stopped being measured); *extra* metrics
    never fail (future PRs may add telemetry without breaking the gate).
    """
    from repro.behavior import DriftConfig, compute_drift, load_profile
    from repro.storage import ArtifactError

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
    kwargs = {"ignore": tuple(ignore)}
    if rel_tol is not None:
        kwargs["rel_tol"] = rel_tol
    if abs_floor is not None:
        kwargs["abs_floor"] = abs_floor
    drift = compute_drift(sides["baseline"], sides["current"], DriftConfig(**kwargs))
    report.files_compared = 1
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


def compare_to_goldens(
    results_dir: Union[str, pathlib.Path],
    goldens_dir: Union[str, pathlib.Path],
    rel_tol: float = 0.05,
    abs_floor: float = 1.0,
    only: Optional[List[str]] = None,
) -> RegressionReport:
    """Compare current results against the goldens snapshot.

    Args:
        results_dir: directory of freshly produced ``*.json`` results.
        goldens_dir: directory produced by :func:`save_goldens`.
        rel_tol: relative tolerance for numeric values (default 5 %).
        abs_floor: scale floor so near-zero values don't demand absurd
            precision.
        only: optional list of file names to restrict the comparison.
    """
    results = pathlib.Path(results_dir)
    goldens = pathlib.Path(goldens_dir)
    report = RegressionReport()
    for golden_file in sorted(goldens.glob("*.json")):
        if only is not None and golden_file.name not in only:
            continue
        current = results / golden_file.name
        if not current.exists():
            report.mismatches.append(
                Mismatch(golden_file.name, "<file>", "present", "absent", "missing")
            )
            continue
        expected = json.loads(golden_file.read_text())
        actual = json.loads(current.read_text())
        report.files_compared += 1
        _compare(expected, actual, rel_tol, abs_floor, golden_file.name, "$", report.mismatches)
    return report

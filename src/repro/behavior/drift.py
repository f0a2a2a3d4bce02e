"""Structured drift between behaviour profiles.

A metric drifts when its absolute delta exceeds ``rel_tol`` of
``max(|baseline|, |current|, abs_floor)`` — relative tolerance with an
absolute floor, so small counts don't flap. On top of that, every metric
gets a three-way verdict:

* ``ok``    — inside ``warn_fraction * rel_tol`` of the scale,
* ``warn``  — outside the ok band but within tolerance,
* ``drift`` — beyond tolerance.

Every metric a profile captures is seed-deterministic (profiles hold no
wall-clock measurements), so one ``rel_tol`` governs them all; an ignore
list excludes metrics from the comparison.

The report's dict form is deterministic (sorted, timestamp-free): the
same pair of profiles always renders the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

VERDICT_OK = "ok"
VERDICT_WARN = "warn"
VERDICT_DRIFT = "drift"
VERDICTS = (VERDICT_OK, VERDICT_WARN, VERDICT_DRIFT)

@dataclass(frozen=True)
class DriftConfig:
    """Tolerance bands for one comparison.

    Attributes:
        rel_tol: relative tolerance for every compared metric.
        abs_floor: scale floor — near-zero metrics never demand absurd
            precision.
        warn_fraction: the ok band ends at ``warn_fraction * rel_tol``;
            between there and ``rel_tol`` a metric is ``warn``.
        ignore: name fragments excluded from comparison entirely.
    """

    rel_tol: float = 0.05
    abs_floor: float = 1.0
    warn_fraction: float = 0.5
    ignore: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be >= 0")
        if self.abs_floor <= 0:
            raise ValueError("abs_floor must be positive")
        if not 0.0 <= self.warn_fraction <= 1.0:
            raise ValueError("warn_fraction must be in [0, 1]")

    def ignored(self, name: str) -> bool:
        """Whether metric ``name`` is excluded from the comparison."""
        return any(frag in name for frag in self.ignore)


@dataclass(frozen=True)
class MetricDrift:
    """One metric's delta against the baseline."""

    metric: str
    baseline: float
    current: float
    rel_delta: float
    rel_tol: float
    verdict: str

    def to_dict(self) -> dict:
        """JSON-ready form (rel_delta rounded for stable rendering)."""
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "rel_delta": round(self.rel_delta, 9),
            "rel_tol": self.rel_tol,
            "verdict": self.verdict,
        }

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.baseline:g} -> {self.current:g} "
            f"({self.rel_delta:+.1%} vs tol {self.rel_tol:.0%}) [{self.verdict}]"
        )


@dataclass
class DriftReport:
    """Machine-readable outcome of one profile comparison."""

    baseline_id: Optional[str]
    profile_id: Optional[str]
    verdict: str = VERDICT_OK
    metrics: List[MetricDrift] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    extra: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_OK

    @property
    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for m in self.metrics:
            out[m.verdict] += 1
        return out

    @property
    def worst(self) -> Optional[MetricDrift]:
        """The metric farthest past its tolerance (None when all ok)."""
        offenders = [m for m in self.metrics if m.verdict != VERDICT_OK]
        if not offenders:
            return None
        return max(offenders, key=lambda m: m.rel_delta / max(m.rel_tol, 1e-12))

    def to_dict(self) -> dict:
        """Deterministic JSON form: sorted, timestamp-free."""
        worst = self.worst
        return {
            "baseline": self.baseline_id,
            "profile": self.profile_id,
            "verdict": self.verdict,
            "counts": self.counts,
            "compared": len(self.metrics),
            "missing": list(self.missing),
            "extra": list(self.extra),
            "worst": worst.to_dict() if worst is not None else None,
            "offenders": [
                m.to_dict() for m in self.metrics if m.verdict != VERDICT_OK
            ],
        }

    def summary(self) -> str:
        """One-line human verdict."""
        c = self.counts
        head = (
            f"{self.verdict.upper()}: {len(self.metrics)} metric(s) compared "
            f"(ok {c[VERDICT_OK]}, warn {c[VERDICT_WARN]}, drift {c[VERDICT_DRIFT]}"
        )
        if self.missing:
            head += f", missing {len(self.missing)}"
        if self.extra:
            head += f", new {len(self.extra)}"
        head += ")"
        worst = self.worst
        if worst is not None:
            head += f"; worst: {worst}"
        return head


def _metrics_of(profile_or_metrics) -> Tuple[Optional[str], Dict[str, float]]:
    if isinstance(profile_or_metrics, Mapping):
        return None, dict(profile_or_metrics)
    return profile_or_metrics.profile_id, dict(profile_or_metrics.metrics)


def compute_drift(
    baseline: Union[Mapping, object],
    current: Union[Mapping, object],
    config: Optional[DriftConfig] = None,
) -> DriftReport:
    """Compare ``current`` against ``baseline``.

    Both sides are either a
    :class:`~repro.behavior.profile.BehaviorProfile` or a plain
    ``name -> value`` mapping (the DriftGuard's windowed rates).
    Verdict folding: any drifting metric makes the report ``drift``;
    otherwise any warn — or any missing/extra metric (schema drift) —
    makes it ``warn``; a profile compared against itself is ``ok`` with
    every delta exactly zero.
    """
    cfg = config or DriftConfig()
    base_id, base = _metrics_of(baseline)
    cur_id, cur = _metrics_of(current)
    report = DriftReport(baseline_id=base_id, profile_id=cur_id)
    for name in sorted(base):
        if cfg.ignored(name):
            continue
        if name not in cur:
            report.missing.append(name)
            continue
        b, c = float(base[name]), float(cur[name])
        scale = max(abs(b), abs(c), cfg.abs_floor)
        rel_delta = abs(b - c) / scale
        if rel_delta > cfg.rel_tol:
            verdict = VERDICT_DRIFT
        elif rel_delta > cfg.warn_fraction * cfg.rel_tol:
            verdict = VERDICT_WARN
        else:
            verdict = VERDICT_OK
        report.metrics.append(
            MetricDrift(name, b, c, rel_delta, cfg.rel_tol, verdict)
        )
    report.extra = sorted(
        name for name in cur if name not in base and not cfg.ignored(name)
    )
    counts = report.counts
    if counts[VERDICT_DRIFT]:
        report.verdict = VERDICT_DRIFT
    elif counts[VERDICT_WARN] or report.missing or report.extra:
        report.verdict = VERDICT_WARN
    else:
        report.verdict = VERDICT_OK
    return report

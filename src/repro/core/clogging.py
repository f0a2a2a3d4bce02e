"""Clogging-thread identification (Identify_CloggingThreads(), §4).

"By looking at the per-thread status counters, the threads that are
clogging the pipelines for various reasons can be identified and marked so
that the job scheduler can later suspend them once loaded without going
through the possibly long process of identifying them for itself."

A thread is *clogging* when it occupies a disproportionate share of a
shared resource while contributing a disproportionately small share of the
committed work — the imbalance definition of §1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.smt.counters import QuantumSnapshot

#: A thread clogs when its pipeline-pressure share exceeds this many fair
#: shares while its commit share is below ``STARVATION_FACTOR`` of one.
OCCUPANCY_FACTOR = 1.1
STARVATION_FACTOR = 0.5


@dataclass(frozen=True)
class CloggingReport:
    """Verdict for one thread."""

    tid: int
    clogging: bool
    reasons: tuple = field(default_factory=tuple)
    occupancy_share: float = 0.0
    commit_share: float = 0.0


def identify_clogging_threads(
    snapshots: Sequence[QuantumSnapshot],
) -> List[CloggingReport]:
    """Classify each thread from its quantum snapshot.

    A thread is flagged when its share of fetched-but-uncommitted work
    (pipeline occupancy pressure) exceeds ``OCCUPANCY_FACTOR`` times its
    fair share while its commit share is below ``STARVATION_FACTOR`` times
    fair share, or when it is the dominant source of a pathological event
    class (mispredict squashes, L1D misses, LSQ-full stalls).
    """
    n = len(snapshots)
    if n == 0:
        return []
    fair = 1.0 / n
    total_commit = sum(s.committed for s in snapshots) or 1
    total_pressure = sum(max(0, s.fetched - s.committed) for s in snapshots) or 1
    total_squash = sum(s.squashed for s in snapshots)
    total_l1d = sum(s.l1d_misses for s in snapshots)
    total_lsq = sum(s.lsq_full for s in snapshots)

    reports: List[CloggingReport] = []
    for s in snapshots:
        reasons: List[str] = []
        pressure_share = max(0, s.fetched - s.committed) / total_pressure
        commit_share = s.committed / total_commit
        if pressure_share > OCCUPANCY_FACTOR * fair and commit_share < STARVATION_FACTOR * fair:
            reasons.append("occupancy-vs-commit imbalance")
        if total_squash and s.squashed / total_squash > 0.5 and s.squashed > s.committed:
            reasons.append("wrong-path storm")
        if total_l1d and s.l1d_misses / total_l1d > 0.5 and commit_share < fair:
            reasons.append("dcache-miss dominance")
        if total_lsq and s.lsq_full / total_lsq > 0.5 and commit_share < fair:
            reasons.append("lsq saturation")
        reports.append(
            CloggingReport(
                tid=s.tid,
                clogging=bool(reasons),
                reasons=tuple(reasons),
                occupancy_share=pressure_share,
                commit_share=commit_share,
            )
        )
    return reports

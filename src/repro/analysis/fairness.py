"""Multithreaded-throughput fairness metrics.

Aggregate IPC (the paper's metric) can reward starving slow threads; the
Jain fairness index over per-thread IPC shows whether throughput gains
come at a fairness cost in ADTS/fixed comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np


def jain_index(per_thread_ipc: Mapping[int, float]) -> float:
    """Jain's fairness index on per-thread IPCs: 1/n (worst) .. 1 (equal)."""
    xs = np.array([v for v in per_thread_ipc.values()], dtype=float)
    if xs.size == 0 or not np.any(xs):
        return 0.0
    return float(xs.sum() ** 2 / (xs.size * (xs**2).sum()))


@dataclass(frozen=True)
class FairnessReport:
    """All fairness metrics for one run."""

    aggregate_ipc: float
    jain: float

    def as_dict(self) -> dict:
        """JSON-friendly view."""
        return {"aggregate_ipc": self.aggregate_ipc, "jain": self.jain}


def fairness_report(stats) -> FairnessReport:
    """Build a report from a finished run's :class:`SimStats`."""
    per_thread = {
        tid: committed / stats.cycles if stats.cycles else 0.0
        for tid, committed in stats.per_thread_committed.items()
    }
    return FairnessReport(aggregate_ipc=stats.ipc, jain=jain_index(per_thread))

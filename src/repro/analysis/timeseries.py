"""Quantum-IPC time-series analysis.

The central empirical question behind ADTS is *how much the best policy
varies over time*: if one policy dominates every quantum, adaptivity cannot
pay. These tools quantify that from per-quantum IPC series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


def detect_level_shifts(
    series: Sequence[float],
    threshold: float = 4.0,
    drift: float = 0.25,
) -> List[int]:
    """Two-sided CUSUM change-point detection on a quantum series.

    Returns the indices where the cumulative deviation from the running
    mean exceeds ``threshold`` standard deviations (phase boundaries in the
    workload, the events ADTS is supposed to react to). ``drift`` is the
    slack per step in sigmas.
    """
    xs = np.asarray(series, dtype=float)
    if xs.size < 4:
        return []
    sigma = float(np.std(xs)) or 1e-9
    mean = float(xs[0])
    up = down = 0.0
    shifts: List[int] = []
    for i, x in enumerate(xs):
        z = (x - mean) / sigma
        up = max(0.0, up + z - drift)
        down = max(0.0, down - z - drift)
        if up > threshold or down > threshold:
            shifts.append(i)
            up = down = 0.0
            mean = float(x)
        else:
            mean += 0.1 * (x - mean)
    return shifts


@dataclass
class DominanceProfile:
    """Who wins each quantum when the same workload runs under several
    policies (aligned by quantum index across runs)."""

    policies: List[str]
    wins: Dict[str, int] = field(default_factory=dict)
    per_quantum_best: List[str] = field(default_factory=list)
    mean_ipc: Dict[str, float] = field(default_factory=dict)
    oracle_mean: float = 0.0

    @property
    def dominant_policy(self) -> str:
        return max(self.wins, key=self.wins.get)

    @property
    def dominance_ratio(self) -> float:
        """Fraction of quanta won by the most-winning policy: 1.0 means a
        single policy always wins (no room for adaptivity)."""
        total = sum(self.wins.values())
        return self.wins[self.dominant_policy] / total if total else 0.0

    def oracle_headroom(self) -> float:
        """Per-quantum-max mean over the best fixed mean — the adaptive
        upper bound this workload offers (paper §1's "some 30% room")."""
        best_fixed = max(self.mean_ipc.values())
        return self.oracle_mean / best_fixed - 1.0 if best_fixed else 0.0


def dominance_profile(series_by_policy: Dict[str, Sequence[float]]) -> DominanceProfile:
    """Build a :class:`DominanceProfile` from aligned per-policy series."""
    if not series_by_policy:
        raise ValueError("need at least one policy series")
    lengths = {len(s) for s in series_by_policy.values()}
    if len(lengths) != 1:
        raise ValueError("series must be aligned (equal length)")
    policies = list(series_by_policy)
    n = lengths.pop()
    profile = DominanceProfile(policies=policies, wins={p: 0 for p in policies})
    arr = np.array([series_by_policy[p] for p in policies], dtype=float)
    best_idx = np.argmax(arr, axis=0)
    for q in range(n):
        winner = policies[int(best_idx[q])]
        profile.wins[winner] += 1
        profile.per_quantum_best.append(winner)
    profile.mean_ipc = {p: float(np.mean(series_by_policy[p])) for p in policies}
    profile.oracle_mean = float(np.mean(arr.max(axis=0)))
    return profile

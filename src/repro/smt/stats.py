"""Simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class QuantumRecord:
    """Aggregate outcome of one scheduling quantum."""

    index: int
    cycles: int
    committed: int
    policy: str

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


@dataclass
class SimStats:
    """Run-level statistics collected by :class:`SMTProcessor`."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    squashed: int = 0
    wrong_path_fetched: int = 0
    mispredicted_branches: int = 0
    cond_branches: int = 0
    syscalls: int = 0
    idle_fetch_slots: int = 0
    per_thread_committed: Dict[int, int] = field(default_factory=dict)
    quantum_history: List[QuantumRecord] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Aggregate committed instructions per cycle — the paper's metric."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicted_branches / self.cond_branches if self.cond_branches else 0.0

    @property
    def wrong_path_fraction(self) -> float:
        return self.wrong_path_fetched / self.fetched if self.fetched else 0.0

    @property
    def fetch_utilization(self) -> float:
        """Fraction of fetch slots carrying (real-path) instructions."""
        total_slots = self.fetched + self.idle_fetch_slots
        return (self.fetched - self.wrong_path_fetched) / total_slots if total_slots else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict for reports."""
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "mispredict_rate": self.mispredict_rate,
            "wrong_path_fraction": self.wrong_path_fraction,
            "fetch_utilization": self.fetch_utilization,
            "syscalls": self.syscalls,
        }

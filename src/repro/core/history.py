"""Switching history (Type 4) and the switch-quality ledger (Figure 7).

Two distinct record-keepers:

* :class:`SwitchHistoryBuffer` — the *mechanism* Type 4 adds: per
  (incumbent policy, condition value) counters of positive and negative
  switch outcomes, consulted before each transition;
* :class:`SwitchQualityLedger` — *instrumentation* for the evaluation: it
  tracks every switch and whether it turned out benign (throughput rose in
  the following quantum), producing the Figure 7(c)/(d) series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HistoryKey = Tuple[str, bool, bool]  # (incumbent, cond_mem, cond_br)


@dataclass
class HistoryEntry:
    """poscnt/negcnt for one (incumbent, condition) case (§4.3.3 Type 4)."""

    poscnt: int = 0
    negcnt: int = 0

    @property
    def favourable(self) -> bool:
        """Regular transition is favoured while poscnt > negcnt."""
        return self.poscnt > self.negcnt


class SwitchHistoryBuffer:
    """The Type 4 heuristic's memory of how past switches worked out."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[HistoryKey, HistoryEntry] = {}
        self._pending: Optional[HistoryKey] = None

    def lookup(self, key: HistoryKey) -> HistoryEntry:
        """Entry for ``key``, creating (and bounding) as needed."""
        entry = self._entries.get(key)
        if entry is None:
            entry = HistoryEntry()
            if len(self._entries) >= self.capacity:
                # Bounded hardware buffer: evict the stalest (arbitrary
                # first) entry, as a real DT PRAM table would wrap.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        return entry

    def note_switch(self, key: HistoryKey) -> None:
        """Remember that a switch was just made for case ``key``; the
        outcome arrives one quantum later via :meth:`record_outcome`."""
        self._pending = key

    def record_outcome(self, improved: bool) -> None:
        """Credit/debit the pending case with the observed outcome."""
        if self._pending is None:
            return
        entry = self.lookup(self._pending)
        if improved:
            entry.poscnt += 1
        else:
            entry.negcnt += 1
        self._pending = None

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class SwitchEvent:
    """One policy switch, for the quality ledger."""

    ipc_before: float
    ipc_after: Optional[float] = None

    @property
    def benign(self) -> Optional[bool]:
        """True if throughput rose after the switch (paper §4.2's 'quality
        of a switch'); None while the following quantum is still running."""
        if self.ipc_after is None:
            return None
        return self.ipc_after > self.ipc_before


@dataclass
class SwitchQualityLedger:
    """Evaluation-side record of all switches and their quality."""

    events: List[SwitchEvent] = field(default_factory=list)
    _open: Optional[SwitchEvent] = None

    def record_switch(self, ipc_before: float) -> None:
        """Open a switch event; judged by the next quantum's IPC."""
        event = SwitchEvent(ipc_before)
        self.events.append(event)
        self._open = event

    def record_quantum_ipc(self, ipc: float) -> None:
        """Close the most recent switch with the next quantum's IPC."""
        if self._open is not None and self._open.ipc_after is None:
            self._open.ipc_after = ipc
            self._open = None

    @property
    def num_switches(self) -> int:
        return len(self.events)

    @property
    def num_benign(self) -> int:
        return sum(1 for e in self.events if e.benign)

    @property
    def num_malignant(self) -> int:
        return sum(1 for e in self.events if e.benign is False)

    @property
    def benign_probability(self) -> float:
        """P(benign switch) — the Figure 7(c)/(d) metric."""
        judged = self.num_benign + self.num_malignant
        return self.num_benign / judged if judged else 0.0

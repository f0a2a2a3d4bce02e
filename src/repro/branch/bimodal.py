"""Bimodal (per-PC 2-bit counter) direction predictor."""

from __future__ import annotations

from repro.branch.base import TwoBitCounterTable


class BimodalPredictor:
    """Classic bimodal predictor: PC-indexed 2-bit saturating counters.

    The table is shared across hardware contexts (real SMT shares predictor
    arrays), so threads alias and interfere — an effect BRCOUNT exploits.
    ``tid`` is accepted for the pipeline's call shape but does not index
    the table.
    """

    def __init__(self, entries: int = 2048) -> None:
        self.table = TwoBitCounterTable(entries)

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self.table.mask

    def predict(self, tid: int, pc: int) -> bool:
        """Predict direction of the conditional branch at ``pc``."""
        return self.table.predict(self._index(pc))

    def update(self, tid: int, pc: int, taken: bool) -> None:
        """Train with the resolved outcome."""
        self.table.update(self._index(pc), taken)

    def predict_and_update(self, tid: int, pc: int, taken: bool) -> bool:
        """Trace-driven use: predict, train, and return True iff correct."""
        prediction = self.predict(tid, pc)
        self.update(tid, pc, taken)
        return prediction == taken

    def reset(self) -> None:
        """Re-initialize the table."""
        self.table.reset()

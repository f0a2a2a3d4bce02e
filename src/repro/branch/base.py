"""The 2-bit saturating-counter table behind the bimodal predictor."""

from __future__ import annotations


class TwoBitCounterTable:
    """A table of 2-bit saturating counters stored in a plain list.

    Counter states: 0 strongly-not-taken, 1 weakly-not-taken,
    2 weakly-taken, 3 strongly-taken. Initialized weakly-taken (2),
    the SimpleScalar convention. List storage keeps the per-prediction
    read/update free of NumPy scalar dispatch (this table is consulted
    for every conditional branch fetched).
    """

    __slots__ = ("entries", "mask", "_table")

    def __init__(self, entries: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("counter table size must be a positive power of two")
        self.entries = entries
        self.mask = entries - 1
        self._table = [2] * entries

    def predict(self, index: int) -> bool:
        """Taken prediction for table slot ``index``."""
        return self._table[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        """Train slot ``index`` toward the actual outcome."""
        i = index & self.mask
        table = self._table
        if taken:
            if table[i] < 3:
                table[i] += 1
        elif table[i] > 0:
            table[i] -= 1

    def counter(self, index: int) -> int:
        """Raw counter value at ``index`` (testing/inspection)."""
        return self._table[index & self.mask]

    def reset(self) -> None:
        """Re-initialize every counter to weakly-taken."""
        self._table = [2] * self.entries

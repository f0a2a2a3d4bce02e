"""Branch Target Buffer.

Direct-mapped tagged target store. A taken branch whose target misses in
the BTB costs a fetch-redirect bubble even when the direction prediction
was correct; this contributes to the front-end waste that BRCOUNT-style
policies react to.
"""

from __future__ import annotations


class BranchTargetBuffer:
    """Direct-mapped BTB with full tags.

    Tag/target stores are plain lists: one lookup per fetched branch makes
    this a hot structure, and list indexing avoids NumPy scalar dispatch.
    """

    __slots__ = ("entries", "mask", "_tags", "_targets")

    def __init__(self, entries: int = 256) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("BTB size must be a positive power of two")
        self.entries = entries
        self.mask = entries - 1
        self._tags = [-1] * entries
        self._targets = [0] * entries

    def lookup(self, pc: int) -> int:
        """Predicted target for the branch at ``pc``, or -1 on BTB miss."""
        idx = (pc >> 2) & self.mask
        if self._tags[idx] == pc:
            return self._targets[idx]
        return -1

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target of the branch at ``pc``."""
        idx = (pc >> 2) & self.mask
        self._tags[idx] = pc
        self._targets[idx] = target

    def reset(self) -> None:
        """Invalidate all entries."""
        self._tags = [-1] * self.entries
        self._targets = [0] * self.entries

"""Shared instruction queues and the load/store queue.

SimpleSMT's main departure from SimpleScalar (paper §5) is separate integer
and floating-point instruction queues; both are shared by all threads,
which is precisely how one thread's unissueable instructions can "clog" the
machine for everyone — the imbalance ADTS watches for.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.smt.instruction import Instruction


class InstructionQueue:
    """A shared issue queue: bounded, dispatch-ordered, lazily compacted.

    The dispatch stage checks the capacity and appends entries itself; the
    issue scan drops issued and squashed ones as it passes them."""

    __slots__ = ("capacity", "name", "_entries")

    def __init__(self, capacity: int, name: str) -> None:
        if capacity <= 0:
            raise ValueError("IQ capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: List[Instruction] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._entries)

    def set_entries(self, entries: List[Instruction]) -> None:
        """Replace the physical entry list (issue-scan compaction)."""
        self._entries = entries

    def compact(self) -> None:
        """Physically drop issued and squashed entries (kept lazily in
        between so squash is O(1) flag-setting)."""
        self._entries = [e for e in self._entries if not (e.issued or e.squashed)]

    def occupancy_of(self, tid: int) -> int:
        """Live entries belonging to thread ``tid``."""
        return sum(1 for e in self._entries if e.tid == tid and not (e.issued or e.squashed))


class LoadStoreQueue:
    """Shared LSQ modeled as bounded per-thread occupancy counts.

    Address disambiguation is not modeled (synthetic traces have no real
    aliasing); what the LSQ contributes to the reproduction is its *capacity
    pressure*: LSQ-full events per cycle feed the COND_MEM heuristic
    condition directly (threshold 0.45/cycle, paper §4.3.2).

    The dispatch stage claims entries (and counts full events) inline;
    :meth:`release` is the one way an entry is given back.
    """

    __slots__ = ("capacity", "_per_thread", "_total", "full_events")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("LSQ capacity must be positive")
        self.capacity = capacity
        self._per_thread: List[int] = []
        self._total = 0
        self.full_events = 0

    def reset_threads(self, num_threads: int) -> None:
        """Size the per-thread attribution for ``num_threads`` contexts."""
        self._per_thread = [0] * num_threads
        self._total = 0

    def __len__(self) -> int:
        return self._total

    def release(self, tid: int) -> None:
        """Free one entry held by ``tid``."""
        if self._per_thread[tid] <= 0:
            raise RuntimeError(f"LSQ underflow for thread {tid}")
        self._per_thread[tid] -= 1
        self._total -= 1

    def occupancy_of(self, tid: int) -> int:
        """Entries currently held by thread ``tid``."""
        return self._per_thread[tid]

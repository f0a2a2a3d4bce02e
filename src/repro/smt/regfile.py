"""Shared rename-register pool.

Tullsen'96 identifies the register file as a primary SMT scaling limit:
every in-flight instruction with a destination holds a physical register
from rename until commit (or squash), and the pool is shared by all
contexts — one more resource a clogging thread can exhaust for everyone.

The model is a counting semaphore with per-thread attribution (so the
status counters can expose per-thread register pressure to policies and to
the detector thread). The dispatch stage claims registers (and counts
failed claims) inline; :meth:`RenameRegisterPool.release` is the one way
a register is given back, at commit, squash, context switch or a
dispatch stall's rollback.
"""

from __future__ import annotations

from typing import List

from repro.smt.instruction import BRANCH, STORE, SYSCALL

#: Opcode classes that write no destination register.
_NO_DEST = frozenset((BRANCH, STORE, SYSCALL))


def needs_register(kind: int) -> bool:
    """Does an op of class ``kind`` allocate a rename register?"""
    return kind not in _NO_DEST


class RenameRegisterPool:
    """Bounded pool of physical registers beyond architectural state."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("register pool capacity must be positive")
        self.capacity = capacity
        self._free = capacity
        self._per_thread: List[int] = []
        self.alloc_failures = 0

    def reset_threads(self, num_threads: int) -> None:
        """Size the per-thread attribution for ``num_threads`` contexts."""
        self._per_thread = [0] * num_threads
        self._free = self.capacity

    @property
    def in_use(self) -> int:
        return self.capacity - self._free

    def occupancy_of(self, tid: int) -> int:
        """Registers currently held by thread ``tid``."""
        return self._per_thread[tid]

    def release(self, tid: int) -> None:
        """Free one register held by ``tid`` (at commit or squash)."""
        if self._per_thread[tid] <= 0:
            raise RuntimeError(f"register underflow for thread {tid}")
        self._per_thread[tid] -= 1
        self._free += 1

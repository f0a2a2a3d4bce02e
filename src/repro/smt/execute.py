"""Execution resources: functional-unit pool and the completion heap."""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.smt.instruction import FADD, FDIV, LOAD, STORE, Instruction


class FunctionalUnitPool:
    """Per-cycle issue-port accounting.

    Units are fully pipelined (SimpleScalar default), so only *issue slots*
    per cycle are limited: ``int_units`` integer issues of which at most
    ``mem_ports`` may be memory operations, and ``fp_units`` FP issues.
    """

    __slots__ = ("int_units", "mem_ports", "fp_units", "_int_used", "_mem_used", "_fp_used")

    def __init__(self, int_units: int, mem_ports: int, fp_units: int) -> None:
        self.int_units = int_units
        self.mem_ports = mem_ports
        self.fp_units = fp_units
        self._int_used = 0
        self._mem_used = 0
        self._fp_used = 0

    def new_cycle(self) -> None:
        """Reset the per-cycle issue-slot counters."""
        self._int_used = 0
        self._mem_used = 0
        self._fp_used = 0

    def try_claim(self, kind: int) -> bool:
        """Claim an issue slot for an op of class ``kind``; False if none.

        Op classes are tested by opcode range (FADD..FDIV and LOAD..STORE
        are contiguous), which is the cheapest membership test on the
        per-issue-candidate path.
        """
        if FADD <= kind <= FDIV:
            if self._fp_used >= self.fp_units:
                return False
            self._fp_used += 1
            return True
        if LOAD <= kind <= STORE:
            if self._mem_used >= self.mem_ports or self._int_used >= self.int_units:
                return False
            self._mem_used += 1
            self._int_used += 1
            return True
        # IALU / IMUL / BRANCH / SYSCALL use integer issue slots.
        if self._int_used >= self.int_units:
            return False
        self._int_used += 1
        return True


class CompletionHeap:
    """Min-heap of (complete_cycle, tiebreak, instruction)."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Instruction]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, instr: Instruction, complete_cycle: int) -> None:
        """Queue ``instr`` to complete at ``complete_cycle``."""
        instr.complete_cycle = complete_cycle
        self._counter += 1
        heapq.heappush(self._heap, (complete_cycle, self._counter, instr))

    def next_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending completion, or None when empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pop_ready(self, now: int) -> List[Instruction]:
        """All instructions completing at or before ``now``, oldest first."""
        ready: List[Instruction] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            ready.append(heapq.heappop(heap)[2])
        return ready

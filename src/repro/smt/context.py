"""Per-thread hardware context.

Holds everything private to one thread: its trace-generator binding (the
"program"), fetch-side stall state, wrong-path mode, the per-thread reorder
buffer, and completion tracking for dependence resolution.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.smt.instruction import Instruction


class ThreadContext:
    """Architected + microarchitected state of one hardware context."""

    __slots__ = (
        "tid",
        "trace",
        "pending",
        "fetch_ready_cycle",
        "wrong_path",
        "wp_branch_seq",
        "rob",
        "done_upto",
        "done_set",
        "waiters",
        "fetchable",
        "suspended",
        "syscall_waiting",
    )

    def __init__(self, tid: int, trace) -> None:
        self.tid = tid
        self.trace = trace
        #: one-instruction pushback buffer (fetch lookahead across block
        #: boundaries returns the instruction here for next cycle).
        self.pending: Optional[Instruction] = None
        #: cycle at which this thread may fetch again (icache miss, redirect,
        #: misfetch bubble, syscall drain).
        self.fetch_ready_cycle = 0
        #: True while fetching wrong-path junk behind a mispredicted branch.
        self.wrong_path = False
        #: seq of the unresolved mispredicted branch (-1 when none).
        self.wp_branch_seq = -1
        #: per-thread reorder buffer, program order.
        self.rob: Deque[Instruction] = deque()
        #: all seqs <= done_upto have completed execution.
        self.done_upto = -1
        #: completed seqs beyond done_upto (sparse out-of-order completions).
        self.done_set: Set[int] = set()
        #: wake-up lists: producer seq -> IQ entries waiting on it.  The
        #: dispatch stage registers not-ready entries; ``mark_completed``
        #: wakes them (re-checking the *other* operand), so the issue scan
        #: tests one flag instead of re-deriving readiness every cycle.
        self.waiters: Dict[int, List[Instruction]] = {}
        #: thread-control flag written by the detector thread: may fetch.
        self.fetchable = True
        #: thread-control flag: marked for suspension by the job scheduler.
        self.suspended = False
        #: a syscall from this thread is waiting for the pipeline to drain.
        self.syscall_waiting = False

    # -- trace access -------------------------------------------------------
    def next_instruction(self) -> Instruction:
        """Next real-path instruction (honouring the pushback buffer)."""
        if self.pending is not None:
            instr = self.pending
            self.pending = None
            return instr
        return self.trace.next_instruction()

    def push_back(self, instr: Instruction) -> None:
        """Return a fetched-but-not-consumed instruction for next cycle."""
        assert self.pending is None, "pushback buffer holds one instruction"
        self.pending = instr

    # -- dependence tracking --------------------------------------------------
    def mark_completed(self, seq: int) -> None:
        """Record that instruction ``seq`` finished execution and wake any
        IQ entries whose last outstanding producer this was."""
        if seq < 0:
            return
        if seq == self.done_upto + 1:
            self.done_upto = seq
            done = self.done_set
            while self.done_upto + 1 in done:
                self.done_upto += 1
                done.remove(self.done_upto)
        elif seq > self.done_upto:
            self.done_set.add(seq)
        waiters = self.waiters
        if waiters:
            woken = waiters.pop(seq, None)
            if woken:
                done_upto = self.done_upto
                done = self.done_set
                for instr in woken:
                    d1 = instr.dep1
                    d2 = instr.dep2
                    if (d1 <= done_upto or d1 in done) and (
                        d2 <= done_upto or d2 in done
                    ):
                        instr.iq_ready = True

    # -- fetch gating ---------------------------------------------------------
    def can_fetch(self, now: int) -> bool:
        """May the TSU consider this thread for fetch this cycle? (The
        fetch stage's one gating rule.)"""
        return (
            self.fetchable
            and not self.suspended
            and not self.syscall_waiting
            and now >= self.fetch_ready_cycle
        )

    def block_fetch_until(self, cycle: int) -> None:
        """Extend the fetch stall to at least ``cycle``."""
        if cycle > self.fetch_ready_cycle:
            self.fetch_ready_cycle = cycle

"""Dynamic instruction record.

Instructions are the unit flowing through every pipeline structure, so the
record is a ``__slots__`` class with plain-int fields (per the hpc guides:
no per-cycle dict/attribute churn in the hot loop). Opcode classes are
module-level ints, not an Enum, for cheap comparisons in the issue loop.
"""

from __future__ import annotations

# Opcode classes (hot-path constants).
IALU = 0
IMUL = 1
FADD = 2
FMUL = 3
FDIV = 4
LOAD = 5
STORE = 6
BRANCH = 7
SYSCALL = 8

KIND_NAMES = {
    IALU: "ialu",
    IMUL: "imul",
    FADD: "fadd",
    FMUL: "fmul",
    FDIV: "fdiv",
    LOAD: "load",
    STORE: "store",
    BRANCH: "branch",
    SYSCALL: "syscall",
}

_FP_KINDS = frozenset((FADD, FMUL, FDIV))


class Instruction:
    """One dynamic instruction.

    Static fields come from the trace generator; the mutable tail fields
    are pipeline state owned by :class:`repro.smt.pipeline.SMTProcessor`.

    Attributes:
        tid: hardware context id.
        seq: per-thread dynamic sequence number (program order).
        kind: opcode class constant (``IALU`` .. ``SYSCALL``).
        pc: instruction address (word-aligned).
        dep1, dep2: per-thread ``seq`` of producer instructions, or -1.
        addr: effective address for loads/stores, else 0.
        cond: for branches, True when the branch is conditional.
        taken: actual direction for conditional branches.
        target: actual target address for taken branches.
        completed: execution finished (result available).
        issued: left an instruction queue for a functional unit.
        squashed: on the wrong path of a mispredicted branch.
        mispredicted: branch whose prediction was wrong (set at fetch).
        complete_cycle: cycle at which execution completes, else -1.
        iq_ready: all producers complete (wake-up flag, maintained by the
            dispatch stage and producer completions — real schedulers wake
            consumers instead of polling, and so does the issue scan).
    """

    __slots__ = (
        "tid",
        "seq",
        "kind",
        "pc",
        "dep1",
        "dep2",
        "addr",
        "cond",
        "taken",
        "target",
        "completed",
        "issued",
        "squashed",
        "mispredicted",
        "complete_cycle",
        "wp_ready",
        "iq_ready",
    )

    def __init__(
        self,
        tid: int,
        seq: int,
        kind: int,
        pc: int,
        dep1: int = -1,
        dep2: int = -1,
        addr: int = 0,
        cond: bool = False,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        self.tid = tid
        self.seq = seq
        self.kind = kind
        self.pc = pc
        self.dep1 = dep1
        self.dep2 = dep2
        self.addr = addr
        self.cond = cond
        self.taken = taken
        self.target = target
        self.completed = False
        self.issued = False
        self.squashed = False
        self.mispredicted = False
        self.complete_cycle = -1
        # Wrong-path instructions (seq == -1) emulate operand waits with an
        # earliest-issue cycle instead of real dependences.
        self.wp_ready = 0
        self.iq_ready = True

    @property
    def is_fp(self) -> bool:
        """Dispatches to the FP queue (the hot stages test
        ``FADD <= kind <= FDIV`` inline)."""
        return self.kind in _FP_KINDS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            f
            for f, on in (
                ("C", self.completed),
                ("I", self.issued),
                ("X", self.squashed),
                ("M", self.mispredicted),
            )
            if on
        )
        return (
            f"Instruction(t{self.tid}#{self.seq} {KIND_NAMES[self.kind]} "
            f"pc={self.pc:#x} deps=({self.dep1},{self.dep2}) {flags})"
        )

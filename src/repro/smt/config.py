"""Machine configuration.

Defaults follow the paper's "resources compatible with previous research on
SMT" (Tullsen et al., ISCA'96): 8 hardware contexts, ICOUNT.2.8 fetch
(8 instructions from up to 2 threads per cycle), 8-wide rename and
commit, 6 integer units of which 4 can issue memory operations, 3 FP
units, 32-entry integer and FP instruction queues, and a 32-entry
load/store queue. One extra context is reserved for the detector thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.hierarchy import HierarchyConfig

from repro.smt.instruction import FADD, FDIV, FMUL, IALU, IMUL, LOAD, STORE, BRANCH, SYSCALL


#: Execution latency per opcode class (cycles in a functional unit),
#: SimpleScalar-style. Loads add memory-hierarchy latency on top.
DEFAULT_LATENCIES = {
    IALU: 1,
    IMUL: 3,
    FADD: 2,
    FMUL: 4,
    FDIV: 12,
    LOAD: 0,  # address generation folded into cache latency
    STORE: 1,
    BRANCH: 1,
    SYSCALL: 1,
}


@dataclass(frozen=True)
class SMTConfig:
    """Full pipeline + hierarchy configuration.

    Attributes mirror the knobs the paper (and its baseline, Tullsen'96)
    expose; everything the benchmarks sweep is here so experiment configs
    are plain replaced dataclasses.
    """

    # Contexts and fetch.
    num_threads: int = 8
    fetch_width: int = 8
    fetch_threads_per_cycle: int = 2  # the ".2" of ICOUNT.2.8
    # *Shared* front-end capacity (fetch buffer + decode + rename slots,
    # ~width x depth). Shared is load-bearing: a clogged thread can hog the
    # front end, which is exactly the imbalance ICOUNT-class policies exist
    # to prevent — per-thread caps would hand every policy that fairness
    # for free and flatten the policy differences the paper studies.
    fetch_buffer_entries: int = 32
    # Front-end width and depth.
    rename_width: int = 8
    front_end_stages: int = 5  # fetch->queue depth; sets misfetch penalty
    # Queues / windows. Tullsen'96 used 32-entry IQs; the synthetic traces
    # carry somewhat less ILP than compiled SPEC code, so the calibrated
    # default is 64/48 to put the machine in the same fetch-limited regime
    # (32-entry queues leave it permanently issue-clogged).
    int_iq_entries: int = 64
    fp_iq_entries: int = 64
    lsq_entries: int = 48
    rob_entries_per_thread: int = 64
    rename_registers: int = 200  # shared pool beyond architectural state
    # Issue / execute.
    issue_width: int = 8
    int_units: int = 6
    mem_ports: int = 4  # subset of int units able to start a load/store
    fp_units: int = 3
    commit_width: int = 8
    # Branch handling: a bimodal predictor. The synthetic branch-outcome
    # model is per-site Bernoulli (no inter-branch history correlation), so
    # history-based indexing would add aliasing without signal.
    # Larger than Tullsen-era tables: the synthetic control-flow model
    # spreads dynamic branches over more sites than compiled SPEC code
    # does, so matched *accuracy* needs more entries than matched *area*.
    predictor_entries: int = 8192
    btb_entries: int = 1024
    # Memory hierarchy.
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    # L2 prefetching: off by default (SimpleScalar-era baseline); the A6
    # ablation turns it on.
    prefetcher: str = "none"  # "none" | "nextline" | "stride"
    # System-call model: conservative full-pipeline flush (paper §6).
    syscall_drain_cycles: int = 20

    def __post_init__(self) -> None:
        if not 1 <= self.num_threads <= 32:
            raise ValueError("num_threads must be in [1, 32]")
        if self.fetch_threads_per_cycle < 1:
            raise ValueError("fetch_threads_per_cycle must be >= 1")
        if self.fetch_width < 1 or self.issue_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be >= 1")
        if self.mem_ports > self.int_units:
            raise ValueError("mem_ports cannot exceed int_units")
        if self.rob_entries_per_thread < 1:
            raise ValueError("rob_entries_per_thread must be >= 1")
        if self.prefetcher not in ("none", "nextline", "stride"):
            raise ValueError(f"unknown prefetcher {self.prefetcher!r}")

    @property
    def misfetch_penalty(self) -> int:
        """Cycles of fetch bubble after a BTB miss on a taken branch."""
        return max(1, self.front_end_stages - 3)

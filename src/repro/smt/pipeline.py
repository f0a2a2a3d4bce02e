"""The SMT processor: cycle-driven pipeline model.

Per-cycle phase order is the classic reverse-pipeline walk (commit first,
fetch last) so data never flows through more than one stage per cycle:

1. **commit** — per-thread ROB heads, shared commit width;
2. **complete** — pop the completion heap; resolve branches (trigger
   wrong-path squash) and wake dependents;
3. **issue** — scan the int/FP queues oldest-first for ready instructions,
   bounded by issue width and functional-unit ports; loads/stores probe the
   shared memory hierarchy;
4. **dispatch** — drain the front-end delay line into IQ/LSQ/ROB, stalling
   (and counting stall events) on full structures;
5. **fetch** — the Thread Selection Unit ranks fetchable contexts with the
   active fetch policy and fetches up to ``fetch_width`` instructions from
   up to ``fetch_threads_per_cycle`` threads, stopping each thread at a
   cache-block boundary (paper §5); leftover slots are offered to the
   scheduler hook (the detector thread).

Wrong-path modeling: a conditional branch that the shared predictor
mispredicts puts its thread into *wrong-path mode*; subsequent fetch cycles
for that thread produce junk instructions that consume fetch slots, IQ
entries and issue bandwidth until the branch executes, at which point the
junk is squashed and fetch redirects. This wasted-slot behaviour is the
phenomenon BRCOUNT-style policies (and hence ADTS) exist to manage.
"""

from __future__ import annotations

import gc
import random
from collections import deque
from math import log as _log
from typing import Deque, Dict, List, Optional, Sequence

from repro.branch.bimodal import BimodalPredictor
from repro.branch.btb import BranchTargetBuffer
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies.base import FetchPolicy
from repro.policies.registry import create_policy
from repro.smt.config import DEFAULT_LATENCIES, SMTConfig
from repro.smt.context import ThreadContext
from repro.smt.counters import CounterBank
from repro.smt.execute import CompletionHeap, FunctionalUnitPool
from repro.smt.instruction import (
    BRANCH,
    FADD,
    FDIV,
    IALU,
    LOAD,
    STORE,
    SYSCALL,
    Instruction,
)
from repro.smt.queues import InstructionQueue, LoadStoreQueue
from repro.smt.regfile import RenameRegisterPool, needs_register
from repro.smt.stats import QuantumRecord, SimStats

_LINE_SHIFT = 6  # 64-byte fetch blocks

#: Span of the wrong-path pollution-address window (per thread).
_WP_ADDR_SPAN = 4 << 20

#: Sentinel for "no pending event" cycle trackers.
_NEVER = 1 << 62

#: Cycles a swapped-in thread waits before it fetches (context-switch cost).
SWITCH_PENALTY = 200


class SchedulerHook:
    """Interface through which ADTS (or any scheduler) observes the machine.

    The default implementation is inert — a fixed-policy processor.
    """

    def attach(self, processor: "SMTProcessor") -> None:
        """Called once when the hook is installed."""

    def on_cycle(self, now: int, idle_slots: int) -> int:
        """Called every cycle with the number of unused fetch slots.

        Returns the number of slots the hook consumed (detector-thread
        instructions executed this cycle).
        """
        return 0

    def on_quantum_end(self, now: int, record: QuantumRecord, snapshots) -> None:
        """Called at each scheduling-quantum boundary."""

    def detach(self) -> None:
        """Drop every reference to the machine :meth:`attach` took, along
        the whole hook chain. The processor holds its hook, so a hook that
        keeps the processor forms a reference cycle that only a full
        garbage-collection pass frees; a finished run calls this once on
        ``processor.hook`` so refcounting frees the machine instead."""


class SMTProcessor:
    """An SMT processor executing one synthetic trace per hardware context."""

    def __init__(
        self,
        config: SMTConfig,
        traces: Sequence,
        policy: str | FetchPolicy = "icount",
        hook: Optional[SchedulerHook] = None,
        quantum_cycles: int = 8192,
        seed: int = 0,
        tracer=None,
    ) -> None:
        if len(traces) > config.num_threads:
            raise ValueError(
                f"{len(traces)} traces for {config.num_threads} hardware contexts"
            )
        if quantum_cycles <= 0:
            raise ValueError("quantum_cycles must be positive")
        self.config = config
        self.quantum_cycles = quantum_cycles
        self.num_threads = len(traces)
        self.contexts: List[ThreadContext] = [
            ThreadContext(t, trace) for t, trace in enumerate(traces)
        ]
        self.counters = CounterBank(self.num_threads)
        prefetcher = None
        if config.prefetcher == "nextline":
            from repro.memory.prefetch import NextLinePrefetcher

            prefetcher = NextLinePrefetcher()
        elif config.prefetcher == "stride":
            from repro.memory.prefetch import StridePrefetcher

            prefetcher = StridePrefetcher()
        self.hierarchy = MemoryHierarchy(config.hierarchy, prefetcher=prefetcher)
        self.predictor = BimodalPredictor(config.predictor_entries)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.iq_int = InstructionQueue(config.int_iq_entries, "int")
        self.iq_fp = InstructionQueue(config.fp_iq_entries, "fp")
        self.lsq = LoadStoreQueue(config.lsq_entries)
        self.lsq.reset_threads(self.num_threads)
        self.regs = RenameRegisterPool(config.rename_registers)
        self.regs.reset_threads(self.num_threads)
        self.fus = FunctionalUnitPool(config.int_units, config.mem_ports, config.fp_units)
        self.completions = CompletionHeap()
        # Front-end delay line, per thread (squash is per-thread) but with
        # *shared* capacity (see SMTConfig.fetch_buffer_entries).
        self._front_latency = max(1, config.front_end_stages - 1)
        self.front_q: List[Deque] = [deque() for _ in range(self.num_threads)]
        self._front_total = 0
        self.policy: FetchPolicy = (
            policy if isinstance(policy, FetchPolicy) else create_policy(policy)
        )
        self.hook = hook or SchedulerHook()
        self.hook.attach(self)
        self.stats = SimStats()
        self.now = 0
        self._commit_rotation = 0
        self._quantum_index = 0
        self._quantum_start_cycle = 0
        self._quantum_committed_base = 0
        self._drain_tid: Optional[int] = None  # syscall draining the pipe
        self._latencies: Dict[int, int] = dict(DEFAULT_LATENCIES)
        # (complete_cycle, tid) pairs for decrementing the outstanding
        # L1D-miss gauge when a miss's fill arrives.
        self._pending_miss_clear: List = []
        # Wrong-path instruction synthesis (kinds/waits/pollution addresses).
        self._wp_rng = random.Random(0x5EED ^ seed)
        #: optional PipelineTracer observing instruction lifecycles.
        self.tracer = tracer
        # Hot-loop caches of frozen-config fields: the per-cycle stage walk
        # reads these thousands of times per simulated millisecond and the
        # dataclass attribute path is pure overhead there.
        self._fetch_width = config.fetch_width
        self._fetch_threads_per_cycle = config.fetch_threads_per_cycle
        self._fetch_buffer_entries = config.fetch_buffer_entries
        self._rename_width = config.rename_width
        self._rob_entries = config.rob_entries_per_thread
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width
        self._misfetch_penalty = config.misfetch_penalty
        self._quantum_end_cycle = quantum_cycles
        #: earliest cycle in _pending_miss_clear (or _NEVER when empty).
        self._next_miss_clear = _NEVER
        #: the installed hook never overrides on_cycle: the per-cycle
        #: callback can be elided.
        self._hook_inert = type(self.hook).on_cycle is SchedulerHook.on_cycle

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def quantum_index(self) -> int:
        """Index of the quantum currently executing (0-based)."""
        return self._quantum_index

    def fingerprint(self) -> str:
        """Digest of the architecturally-relevant machine state.

        Two processors with equal fingerprints are at the same point of the
        same deterministic run; every :class:`~repro.harness.runner.RunResult`
        carries one, and fork and batch equivalence tests use it to detect
        divergence cheaply without comparing whole object graphs.
        """
        import hashlib

        h = hashlib.sha256()
        h.update(
            repr(
                (
                    self.now,
                    self._quantum_index,
                    self.policy_name,
                    self.stats.committed,
                    self.stats.fetched,
                    self.stats.squashed,
                    self.stats.idle_fetch_slots,
                    sorted(self.stats.per_thread_committed.items()),
                    self._wp_rng.getstate(),
                )
            ).encode()
        )
        for ctx in self.contexts:
            h.update(
                repr(
                    (
                        ctx.tid,
                        ctx.fetch_ready_cycle,
                        ctx.wrong_path,
                        ctx.done_upto,
                        len(ctx.rob),
                        ctx.trace.seq,
                    )
                ).encode()
            )
        for tc in self.counters:
            h.update(repr(sorted(tc.as_dict().items())).encode())
        return h.hexdigest()

    def set_policy(self, policy: str | FetchPolicy) -> None:
        """Switch the active fetch policy (ADTS's Policy_Switch())."""
        self.policy = policy if isinstance(policy, FetchPolicy) else create_policy(policy)

    @property
    def policy_name(self) -> str:
        return self.policy.name

    def run(self, cycles: int) -> SimStats:
        """Advance the machine ``cycles`` cycles; returns the stats object."""
        target = self.now + cycles
        step = self.step
        # The cycle loop allocates almost nothing cyclic (a few hundred
        # collectable objects per process), but CPython's generational GC
        # still walks the heap on its schedule — pausing it for the loop is
        # a measurable win with no retention risk at this allocation rate.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while self.now < target:
                step()
        finally:
            if gc_was_enabled:
                gc.enable()
        return self.stats

    def run_quanta(self, quanta: int) -> SimStats:
        """Advance a whole number of scheduling quanta."""
        return self.run(quanta * self.quantum_cycles)

    def swap_thread(self, tid: int, new_trace) -> None:
        """Context-switch hardware context ``tid`` to a different software
        thread (the job scheduler's action, §3).

        In-flight instructions of the outgoing thread are dropped (the OS
        discards pipeline state on a context switch; the handful of lost
        in-flight instructions is below the abstraction level of the trace
        model). The outgoing trace object keeps its position, so a swapped-
        out job can be swapped back in later and resume. Fetch restarts
        after ``SWITCH_PENALTY`` cycles of context-switch cost.
        """
        ctx = self.contexts[tid]
        tc = self.counters[tid]
        # 1. Drop the front end and the whole ROB (IQ-resident and
        # executing instructions included).
        self._drop(tid, junk_only=False)
        # The issue stage drops squashed entries lazily, but it skips the
        # fp scan in cycles where integer issue uses the whole width.
        self.iq_int.compact()
        self.iq_fp.compact()
        # 2. Clear pending per-thread machine state.
        ctx.pending = None
        ctx.wrong_path = False
        ctx.wp_branch_seq = -1
        ctx.syscall_waiting = False
        ctx.suspended = False
        ctx.done_set.clear()
        ctx.waiters.clear()  # squashed entries must not be woken by new seqs
        tc.outstanding_l1d_misses = 0
        self._pending_miss_clear = [
            (cycle, t) for cycle, t in self._pending_miss_clear if t != tid
        ]
        self._next_miss_clear = min(
            (cycle for cycle, _t in self._pending_miss_clear), default=_NEVER
        )
        tc.recent_l1i_misses = 0.0
        tc.recent_stalls = 0.0
        # 3. Bind the incoming thread. Its pre-swap instructions count as
        # architecturally complete (the OS restored its register state).
        ctx.trace = new_trace
        ctx.done_upto = new_trace.seq - 1
        ctx.block_fetch_until(self.now + SWITCH_PENALTY)

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the machine one cycle (see the module docstring for
        the phase order)."""
        now = self.now
        self._commit(now)
        self._complete(now)
        self._drain_miss_gauges(now)
        self._syscall_drain_check(now)
        self._issue(now)
        self._dispatch(now)
        idle = self._fetch(now)
        stats = self.stats
        if self._hook_inert:
            # The default hook consumes nothing; skip the call entirely.
            stats.idle_fetch_slots += idle
        else:
            consumed = self.hook.on_cycle(now, idle)
            if consumed < 0 or consumed > idle:
                # A misbehaving hook must not corrupt the slot accounting the
                # utilization analyses are built on: clamp to the physical range.
                consumed = min(max(consumed, 0), idle)
            stats.idle_fetch_slots += idle - consumed
        self.hierarchy.tick(now)
        self.counters.tick_all()
        self.now = now + 1
        stats.cycles = self.now
        if self.now >= self._quantum_end_cycle:
            self._end_quantum()

    # -- commit -----------------------------------------------------------
    def _commit(self, now: int) -> None:
        budget = self._commit_width
        n = self.num_threads
        self._commit_rotation = rotation = (self._commit_rotation + 1) % n
        stats = self.stats
        contexts = self.contexts
        threads = self.counters.threads
        regs = self.regs
        lsq = self.lsq
        tracer = self.tracer
        per_thread = stats.per_thread_committed
        for i in range(n):
            if budget <= 0:
                break
            tid = (rotation + i) % n
            rob = contexts[tid].rob
            if not rob:
                continue
            tc = threads[tid]
            while budget > 0 and rob:
                head = rob[0]
                if head.squashed:
                    # Should have been removed at squash; defensive.
                    rob.popleft()
                    continue
                if not head.completed:
                    break
                rob.popleft()
                budget -= 1
                tc.rob -= 1
                if tracer:
                    tracer.record(now, "commit", head)
                kind = head.kind
                # needs_register(kind): opcodes are ordered so every
                # destination-writing class sorts below STORE.
                if kind < STORE:
                    regs.release(tid)
                if kind == LOAD or kind == STORE:
                    lsq.release(tid)
                    tc.lsq -= 1
                    tc.in_flight_mem -= 1
                    if kind == LOAD:
                        tc.in_flight_loads -= 1
                tc.q_committed += 1
                tc.total_committed += 1
                stats.committed += 1
                per_thread[tid] = per_thread.get(tid, 0) + 1
                if kind == SYSCALL:
                    self._finish_syscall(tid)

    # -- completion ---------------------------------------------------------
    def _complete(self, now: int) -> None:
        completions = self.completions
        nc = completions.next_cycle()
        if nc is None or nc > now:
            return  # nothing matures this cycle: skip the pop machinery
        contexts = self.contexts
        threads = self.counters.threads
        tracer = self.tracer
        for instr in completions.pop_ready(now):
            if instr.squashed:
                continue
            instr.completed = True
            if tracer:
                tracer.record(now, "complete", instr)
            tid = instr.tid
            ctx = contexts[tid]
            ctx.mark_completed(instr.seq)
            if instr.kind == BRANCH and instr.cond:
                threads[tid].in_flight_branches -= 1
                if instr.mispredicted and ctx.wp_branch_seq == instr.seq:
                    self._squash_wrong_path(tid, now)

    # -- squash ---------------------------------------------------------------
    def _squash_wrong_path(self, tid: int, now: int) -> None:
        """Kill everything younger than the resolved mispredicted branch."""
        ctx = self.contexts[tid]
        # The front end holds only junk at this point, and the ROB's junk
        # (seq == -1) is contiguous at its tail. Issued junk is in the
        # completion heap; _complete skips it.
        dropped = self._drop(tid, junk_only=True)
        self.counters[tid].q_squashed += len(dropped)
        self.stats.squashed += len(dropped)
        if self.tracer:
            for instr in dropped:
                self.tracer.record(now, "squash", instr)
        ctx.wrong_path = False
        ctx.wp_branch_seq = -1
        ctx.block_fetch_until(now + self._misfetch_penalty)

    def _drop(self, tid: int, junk_only: bool) -> List[Instruction]:
        """Drop thread ``tid``'s front-end contents and its ROB entries
        (all of them, or only the wrong-path junk at the tail), marking
        each squashed and giving back what it holds: its front-end or ROB
        slot, its IQ entry until issue, its rename register, its LSQ entry
        and in-flight memory counts, and an unresolved conditional
        branch's in-flight count. Returns the dropped instructions,
        youngest first (front end, then ROB)."""
        tc = self.counters[tid]
        fq = self.front_q[tid]
        dropped = [fq.pop()[0] for _ in range(len(fq))]
        tc.front_end -= len(dropped)
        self._front_total -= len(dropped)
        for instr in dropped:
            if instr.kind == BRANCH and instr.cond:
                tc.in_flight_branches -= 1
        rob = self.contexts[tid].rob
        while rob and not (junk_only and rob[-1].seq != -1):
            instr = rob.pop()
            dropped.append(instr)
            tc.rob -= 1
            if not instr.issued:
                if instr.is_fp:
                    tc.iq_fp -= 1
                else:
                    tc.iq_int -= 1
            kind = instr.kind
            if needs_register(kind):
                self.regs.release(tid)
            if kind == LOAD or kind == STORE:
                self.lsq.release(tid)
                tc.lsq -= 1
                tc.in_flight_mem -= 1
                if kind == LOAD:
                    tc.in_flight_loads -= 1
            elif kind == BRANCH and instr.cond and not instr.completed:
                tc.in_flight_branches -= 1
            elif kind == SYSCALL and self._drain_tid == tid:
                self._drain_tid = None
        for instr in dropped:
            instr.squashed = True
        return dropped

    # -- syscall drain ----------------------------------------------------------
    def _syscall_drain_check(self, now: int) -> None:
        """If a syscall is draining the pipe, start it once drained."""
        tid = self._drain_tid
        if tid is None:
            return
        ctx = self.contexts[tid]
        rob = ctx.rob
        if not rob or rob[0].kind != SYSCALL or rob[0].issued:
            return
        # Drained = no one else has anything in flight, our older work done.
        if len(self.completions):
            return
        for other in self.contexts:
            if other.tid != tid and other.rob:
                return
        if len(self.iq_int) or len(self.iq_fp):
            # Lazy entries may linger; compact and re-check.
            self.iq_int.compact()
            self.iq_fp.compact()
            if len(self.iq_int) or len(self.iq_fp):
                return
        syscall = rob[0]
        syscall.issued = True
        self.completions.schedule(syscall, now + self.config.syscall_drain_cycles)

    def _finish_syscall(self, tid: int) -> None:
        self._drain_tid = None
        self.contexts[tid].syscall_waiting = False
        self.stats.syscalls += 1

    # -- issue -------------------------------------------------------------
    def _issue(self, now: int) -> None:
        self.fus.new_cycle()
        budget = self._issue_queue(self.iq_int, self._issue_width, now)
        if budget > 0:
            self._issue_queue(self.iq_fp, budget, now)

    def _issue_queue(self, iq: InstructionQueue, budget: int, now: int) -> int:
        entries = iq._entries  # hot loop: skip the __iter__/__len__ layer
        if budget <= 0 or not entries:
            return budget
        threads = self.counters.threads
        try_claim = self.fus.try_claim
        latencies = self._latencies
        store_latency = latencies[STORE]
        schedule = self.completions.schedule
        hierarchy = self.hierarchy
        tracer = self.tracer
        is_int_q = iq is self.iq_int
        survivors: List[Instruction] = []
        append = survivors.append
        for instr in entries:
            if instr.squashed or instr.issued:
                continue  # lazy removal
            if budget <= 0:
                append(instr)
                continue
            tid = instr.tid
            if instr.seq != -1:
                # Wake-up flag (hottest check in the scan): set at dispatch,
                # flipped by producer completions in mark_completed.
                if not instr.iq_ready:
                    threads[tid].recent_stalls += 0.1  # waiting in IQ: mild stall signal
                    append(instr)
                    continue
            elif now < instr.wp_ready:
                # Wrong-path junk waiting on its phantom operands.
                append(instr)
                continue
            kind = instr.kind
            if not try_claim(kind):
                append(instr)
                continue
            # Issue it.
            budget -= 1
            instr.issued = True
            if tracer:
                tracer.record(now, "issue", instr)
            tc = threads[tid]
            if is_int_q:
                tc.iq_int -= 1
            else:
                tc.iq_fp -= 1
            if kind == LOAD:
                result = hierarchy.load(instr.addr, now)
                if result.mshr_stall:
                    # Cannot allocate a miss entry: retry next cycle.
                    instr.issued = False
                    tc.iq_int += 1
                    tc.recent_stalls += 1.0
                    tc.q_stall_cycles += 1
                    budget += 1
                    append(instr)
                    continue
                latency = 1 + result.latency
                if result.l1_miss:
                    tc.outstanding_l1d_misses += 1
                    tc.q_l1d_misses += 1
                    if result.l2_miss:
                        tc.q_l2_misses += 1
                    # Remember to decrement the outstanding-miss gauge.
                    fill_cycle = now + latency
                    self._pending_miss_clear.append((fill_cycle, tid))
                    if fill_cycle < self._next_miss_clear:
                        self._next_miss_clear = fill_cycle
                schedule(instr, now + latency)
            elif kind == STORE:
                result = hierarchy.store(instr.addr, now)
                if result.l1_miss:
                    tc.q_l1d_misses += 1
                    if result.l2_miss:
                        tc.q_l2_misses += 1
                # Stores complete quickly; the LSQ holds them until commit.
                schedule(instr, now + store_latency)
            else:
                schedule(instr, now + latencies.get(kind, 1))
        iq.set_entries(survivors)
        return budget

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self, now: int) -> None:
        if self._drain_tid is not None:
            return  # syscall draining: hold everything in the front end
        budget = self._rename_width
        n = self.num_threads
        start = self._commit_rotation  # reuse rotation for fairness
        front_q = self.front_q
        contexts = self.contexts
        threads = self.counters.threads
        dispatch_thread = self._dispatch_thread
        for i in range(n):
            if budget <= 0:
                break
            tid = (start + i) % n
            budget = dispatch_thread(
                tid, contexts[tid], threads[tid], front_q[tid], budget, now
            )

    def _dispatch_thread(self, tid: int, ctx, tc, fq, budget: int,
                         now: int) -> int:
        if ctx.syscall_waiting:
            return budget
        rob = ctx.rob
        rob_limit = self._rob_entries
        regs = self.regs
        lsq = self.lsq
        tracer = self.tracer
        while budget > 0 and fq:
            instr, ready_cycle = fq[0]
            if ready_cycle > now:
                break
            if len(rob) >= rob_limit:
                tc.recent_stalls += 1.0
                tc.q_stall_cycles += 1
                break
            kind = instr.kind
            if kind == SYSCALL:
                if self._drain_tid is not None:
                    break  # another syscall is mid-drain
                fq.popleft()
                tc.front_end -= 1
                self._front_total -= 1
                rob.append(instr)
                tc.rob += 1
                ctx.syscall_waiting = True
                self._drain_tid = tid
                budget -= 1
                break
            # The resource claims (rename register, LSQ entry, IQ slot)
            # exist only here, inline: this loop runs for every dispatch
            # attempt, and as method calls they cost the stage ~3% (DESIGN
            # §10). A stall gives back the earlier claims through the
            # structures' release(), the one copy of that rule.
            needs_reg = kind < STORE  # == needs_register(kind)
            if needs_reg:
                if regs._free <= 0:
                    # Shared rename pool exhausted: dispatch stalls —
                    # machine-wide pressure the paper's clogging analysis
                    # calls out.
                    regs.alloc_failures += 1
                    tc.q_reg_full += 1
                    tc.recent_stalls += 1.0
                    tc.q_stall_cycles += 1
                    break
                regs._free -= 1
                regs._per_thread[tid] += 1
            is_mem = kind == LOAD or kind == STORE
            if is_mem:
                if lsq._total >= lsq.capacity:
                    lsq.full_events += 1
                    if needs_reg:
                        regs.release(tid)
                    tc.q_lsq_full += 1
                    tc.recent_stalls += 1.0
                    tc.q_stall_cycles += 1
                    break
                lsq._per_thread[tid] += 1
                lsq._total += 1
            is_fp = FADD <= kind <= FDIV  # == instr.is_fp
            iq = self.iq_fp if is_fp else self.iq_int
            # Issue already dropped every issued or squashed entry: the
            # integer scan runs every cycle, and only swap_thread squashes
            # fp entries (it compacts both queues itself).
            if len(iq._entries) >= iq.capacity:
                if is_mem:
                    lsq.release(tid)
                if needs_reg:
                    regs.release(tid)
                tc.q_iq_full += 1
                tc.recent_stalls += 1.0
                tc.q_stall_cycles += 1
                break
            # Commit the dispatch.
            fq.popleft()
            tc.front_end -= 1
            self._front_total -= 1
            if tracer:
                tracer.record(now, "dispatch", instr)
            iq._entries.append(instr)
            if instr.seq != -1:
                # Wake-up registration: evaluate readiness once, here; the
                # issue scan then tests the flag and producer completions
                # (ThreadContext.mark_completed) flip it — no per-cycle
                # re-derivation.  Junk (seq == -1) uses wp_ready instead.
                du = ctx.done_upto
                ds = ctx.done_set
                d1 = instr.dep1
                d2 = instr.dep2
                w1 = d1 > du and d1 not in ds
                w2 = d2 > du and d2 not in ds
                if w1 or w2:
                    instr.iq_ready = False
                    waiters = ctx.waiters
                    if w1:
                        waiters.setdefault(d1, []).append(instr)
                    if w2 and d2 != d1:
                        waiters.setdefault(d2, []).append(instr)
            if is_fp:
                tc.iq_fp += 1
            else:
                tc.iq_int += 1
            rob.append(instr)
            tc.rob += 1
            if is_mem:
                tc.lsq += 1
                tc.in_flight_mem += 1
                if kind == LOAD:
                    tc.in_flight_loads += 1
            budget -= 1
        return budget

    # -- fetch --------------------------------------------------------------
    def _fetch(self, now: int) -> int:
        fuel = self._fetch_width
        free = self._fetch_buffer_entries - self._front_total
        if free <= 0 or self._drain_tid is not None:
            return fuel
        candidates = [ctx.tid for ctx in self.contexts if ctx.can_fetch(now)]
        if candidates:
            threads_used = 0
            max_threads = self._fetch_threads_per_cycle
            fetch_thread = self._fetch_thread
            for tid in self.policy.rank(candidates, self.counters):
                if fuel <= 0 or free <= 0 or threads_used >= max_threads:
                    break
                got = fetch_thread(tid, fuel if fuel < free else free, now)
                # An attempt consumes the thread slot even when the I-cache
                # misses (the port was occupied by the probe) — this is
                # what makes single-thread-per-cycle fetch fragile.
                threads_used += 1
                if got > 0:
                    fuel -= got
                    free -= got
        return fuel

    def _fetch_thread(self, tid: int, fuel: int, now: int) -> int:
        ctx = self.contexts[tid]
        tc = self.counters.threads[tid]
        stats = self.stats
        fq = self.front_q[tid]
        fq_append = fq.append
        tracer = self.tracer
        ready_at = now + self._front_latency
        if ctx.wrong_path:
            # Wrong-path fetch: the hardware cannot tell these from real
            # instructions, so neither can the counters — junk looks like
            # the real mix: it waits on (phantom) operands in the IQ, loads
            # pollute the caches, and branches inflate the unresolved-
            # branch counts that BRCOUNT keys on.
            #
            # All junk decisions come from one pre-drawn ``random()`` batch:
            # exactly three uniforms per instruction (kind, address, wait),
            # so the stream position after N instructions is 3N draws
            # regardless of the kinds drawn.
            count = min(fuel, self._fetch_width)
            rand = self._wp_rng.random
            draws = [rand() for _ in range(3 * count)]
            j = 0
            load_base = (tid << 30) + (32 << 20)
            for _ in range(count):
                r = draws[j]
                u_addr = draws[j + 1]
                u_wait = draws[j + 2]
                j += 3
                if r < 0.25:
                    junk = Instruction(
                        tid, -1, LOAD, 0, addr=load_base + int(u_addr * _WP_ADDR_SPAN)
                    )
                    tc.q_loads += 1
                elif r < 0.40:
                    junk = Instruction(tid, -1, BRANCH, 0, cond=True)
                    tc.in_flight_branches += 1
                    tc.q_branches += 1
                    tc.q_cond_branches += 1
                else:
                    junk = Instruction(tid, -1, IALU, 0)
                # Phantom operand wait: exponential by inversion, mean ~6.
                junk.wp_ready = ready_at + min(40, int(-6.0 * _log(1.0 - u_wait)))
                if tracer:
                    tracer.record(now, "fetch", junk)
                fq_append((junk, ready_at))
            tc.front_end += count
            self._front_total += count
            tc.q_fetched += count
            tc.total_fetched += count
            stats.fetched += count
            stats.wrong_path_fetched += count
            return count
        count = 0
        current_line = -1
        next_instruction = ctx.next_instruction
        while count < fuel:
            instr = next_instruction()
            line = instr.pc >> _LINE_SHIFT
            if current_line < 0:
                # First iteration only: one I-cache probe per fetch attempt.
                result = self.hierarchy.ifetch(instr.pc, now)
                if result.l1_miss:
                    tc.recent_l1i_misses += 1.0
                    tc.q_l1i_misses += 1
                    if result.l2_miss:
                        tc.q_l2_misses += 1
                    ctx.push_back(instr)
                    ctx.block_fetch_until(now + result.latency)
                    return -1  # count is necessarily 0 here
                current_line = line
            elif line != current_line:
                # Cache-block boundary: this thread is done for the cycle.
                ctx.push_back(instr)
                break
            # Accept the instruction. Instructions are stamped with the
            # *hardware context* id: a trace generator's own tid names its
            # address space, which differs from the context when the job
            # scheduler has remapped jobs (core/jobsched.py).
            instr.tid = tid
            if tracer:
                tracer.record(now, "fetch", instr)
            fq_append((instr, ready_at))
            count += 1
            kind = instr.kind
            if kind == BRANCH:
                if self._fetch_branch(ctx, tc, instr, now):
                    break
            elif kind == LOAD:
                tc.q_loads += 1
            elif kind == STORE:
                tc.q_stores += 1
            elif kind == SYSCALL:
                break  # fetch no further until the syscall retires
        if count:
            # Per-fetch-group counter updates, applied in bulk: nothing in
            # the loop (including _fetch_branch) reads these fields.
            tc.front_end += count
            self._front_total += count
            tc.q_fetched += count
            tc.total_fetched += count
            stats.fetched += count
        return count

    def _fetch_branch(self, ctx: ThreadContext, tc, instr: Instruction, now: int) -> bool:
        """Handle prediction for a just-fetched branch; True = stop fetching."""
        tc.q_branches += 1
        if instr.cond:
            tc.q_cond_branches += 1
            self.stats.cond_branches += 1
            tc.in_flight_branches += 1
            correct = self.predictor.predict_and_update(ctx.tid, instr.pc, instr.taken)
            if not correct:
                instr.mispredicted = True
                tc.q_mispredicts += 1
                self.stats.mispredicted_branches += 1
                ctx.wrong_path = True
                ctx.wp_branch_seq = instr.seq
                return True
            if not instr.taken:
                return False  # correctly predicted not-taken: keep fetching
        # Taken (or unconditional) branch: check the BTB for the target.
        predicted_target = self.btb.lookup(instr.pc)
        if predicted_target != instr.target:
            self.btb.update(instr.pc, instr.target)
            ctx.block_fetch_until(now + self._misfetch_penalty)
        return True

    # -- quantum ------------------------------------------------------------
    def _end_quantum(self) -> None:
        committed = self.stats.committed - self._quantum_committed_base
        record = QuantumRecord(
            index=self._quantum_index,
            cycles=self.now - self._quantum_start_cycle,
            committed=committed,
            policy=self.policy.name,
        )
        self.stats.quantum_history.append(record)
        self.stats.cycles = self.now
        snapshots = self.counters.end_quantum()
        self.policy.on_quantum_boundary()
        self.hook.on_quantum_end(self.now, record, snapshots)
        self._quantum_index += 1
        self._quantum_start_cycle = self.now
        self._quantum_end_cycle = self.now + self.quantum_cycles
        self._quantum_committed_base = self.stats.committed

    def _drain_miss_gauges(self, now: int) -> None:
        """Clear outstanding-L1D-miss gauges whose fills have arrived."""
        if now < self._next_miss_clear:
            return  # also when none is pending (_NEVER)
        threads = self.counters.threads
        keep = []
        nxt = _NEVER
        for cycle, tid in self._pending_miss_clear:
            if cycle <= now:
                threads[tid].outstanding_l1d_misses -= 1
            else:
                keep.append((cycle, tid))
                if cycle < nxt:
                    nxt = cycle
        self._pending_miss_clear = keep
        self._next_miss_clear = nxt

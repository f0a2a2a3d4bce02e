"""Lockstep batch engine: simulate many grid cells per pass.

A parameter sweep (threshold × heuristic × mix, ROADMAP item 2) runs tens
of cells that share one workload: same mix, same seed, same machine
configuration — only the *scheduler* differs. Run sequentially, every cell
pays full price for trace generation and cycle stepping even though cells
frequently take identical trajectories for many quanta (a threshold that
never fires leaves every heuristic on ICOUNT; distinct thresholds often
make the same switch decisions). This module exploits both redundancies
without changing a single simulated bit:

* **Shared trace streams** (:class:`SharedTraceStore`) — the instruction
  stream of a thread is a pure function of ``(generator version, seed,
  slot, app, profile)``, exactly the trace-cache key. The store
  materializes each stream once into column lists and hands every cell a
  lightweight cursor (:class:`SharedTrace`), so a 25-cell sweep decodes
  each trace once instead of 25 times. With a disk trace cache active the
  store aliases the cache's recorded columns, and extending past the
  prefix goes through the cache's own overrun path so flushes still
  persist the longest prefix.

* **Trajectory sharing** (:class:`BatchEngine`) — cells whose start state
  is identical (same apps/seed/machine/quantum grid/initial policy) are
  *grouped* onto one simulated machine. The group steps one quantum at a
  time; at every boundary each member's controller runs against recording
  proxies that capture the machine mutations it *would* make (policy
  switches, fetch inhibition, suspension marks) plus its detector-thread
  queue. Members whose captured signatures agree keep sharing the
  machine — the recorded ops are applied once. Members that disagree are
  **forked**: the machine is pickled (the same mechanism checkpointing
  already relies on) and each divergent partition continues on its own
  clone. Sharing is therefore exact by construction, not approximate: a
  cell's machine always evolves under precisely the mutations its own
  controller issued.

Lockstep invariants (violations raise :class:`BatchDivergenceError`):

* grouped members have bit-identical machines at every cycle, so their
  detector threads must consume identical fetch-slot counts every cycle;
* the only scheduler→machine mutations are the three recorded op kinds
  plus ``set_policy`` — all captured by the boundary proxies;
* boundary signatures include the *complete* post-boundary DT queue (so a
  watchdog's ``drop_all`` is visible) and the recorded ops, which is
  sufficient: queued task side effects are pure functions of payloads the
  group shares (clogging reports derive from the shared machine's counter
  snapshots; policy switches carry their target policy in the signature).

On numpy: the per-cell state here (detector queues, controller ledgers)
is scalar and branchy — per the ``util/randpool.py`` precedent, numpy
pays only for bulk sequential transforms. Trace columns stay plain
Python lists (they are consumed one scalar at a time by the pipeline, and
``tracecache`` already showed list indexing beats ndarray scalar reads);
the win comes from deduplicating whole quantum steps, not vectorizing
them. See DESIGN.md §15.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.smt.config import SMTConfig
from repro.smt.instruction import Instruction
from repro.smt.pipeline import SchedulerHook, SMTProcessor


class BatchDivergenceError(RuntimeError):
    """A lockstep invariant broke: grouped cells disagreed mid-quantum.

    This is a bug guard, not an expected runtime condition — divergence is
    only legal at quantum boundaries, where it is handled by forking.
    """


# ---------------------------------------------------------------------------
# Shared trace streams
# ---------------------------------------------------------------------------

class _Stream:
    """One materialized instruction stream, shared by every consumer cell.

    With a disk trace cache active, ``cols`` *aliases* the cache-attached
    trace's column lists: replayed prefixes are served for free and
    extension goes through the cache's canonical overrun path, so the
    cache's flush/extension bookkeeping is untouched. Without a cache the
    stream owns its columns and pulls from a seeded generator on demand.
    """

    __slots__ = ("cols", "n", "_master", "_gen")

    def __init__(self, profile, slot: int, name: str, seed: int) -> None:
        from repro.workloads.tracecache import _build_generator, active_trace_cache

        cache = active_trace_cache()
        if cache is not None:
            master = cache.attach(profile, slot, name, seed)
            self._master = master
            self._gen = None
            self.cols = master._cols
            self.n = master._n
        else:
            self._master = None
            self._gen = _build_generator(profile, slot, name, seed)
            self.cols = [[] for _ in range(8)]
            self.n = 0

    def extend_to(self, i: int) -> None:
        """Grow the stream until instruction ``i`` exists."""
        master = self._master
        if master is not None:
            if master.seq < master._n:
                # Jump the master to record mode: consumers replayed the
                # prefix straight from the shared columns, so extension is
                # exactly the sequential engine's overrun path (rebuild the
                # generator, spin past the prefix, record live from there).
                master.seq = master._n
            while master._n <= i:
                master.next_instruction()
            self.n = master._n
        else:
            gen = self._gen
            k, pc, d1, d2, ad, co, tk, tg = self.cols
            n = self.n
            while n <= i:
                ins = gen.next_instruction()
                k.append(ins.kind)
                pc.append(ins.pc)
                d1.append(ins.dep1)
                d2.append(ins.dep2)
                ad.append(ins.addr)
                co.append(ins.cond)
                tk.append(ins.taken)
                tg.append(ins.target)
                n += 1
            self.n = n


class SharedTrace:
    """Per-cell cursor over a shared stream (``TraceGenerator`` stand-in).

    Exposes the ``tid``/``seq``/``profile`` surface the pipeline and
    fingerprint read. Pickling (machine forks, checkpoints) drops the
    stream reference — columns would otherwise be copied per clone — and
    the engine rebinds the cursor via :meth:`SharedTraceStore.rebind`.
    """

    __slots__ = ("profile", "tid", "name", "seed", "seq", "_stream", "_cols")

    def __init__(self, stream: _Stream, profile, slot: int, name: str, seed: int) -> None:
        self._stream = stream
        self._cols = stream.cols
        self.profile = profile
        self.tid = slot
        self.name = name
        self.seed = seed
        self.seq = 0

    def __getstate__(self):
        return (self.profile, self.tid, self.name, self.seed, self.seq)

    def __setstate__(self, state):
        self.profile, self.tid, self.name, self.seed, self.seq = state
        self._stream = None
        self._cols = None

    def next_instruction(self) -> Instruction:
        """The next instruction at this cursor, extending the shared
        stream on demand; bit-identical to a private generator's output."""
        i = self.seq
        stream = self._stream
        if i >= stream.n:
            stream.extend_to(i)
        c = self._cols
        self.seq = i + 1
        return Instruction(
            self.tid, i, c[0][i], c[1][i], c[2][i], c[3][i],
            c[4][i], c[5][i], c[6][i], c[7][i],
        )

    def take(self, n: int) -> List[Instruction]:
        """The next ``n`` instructions (the bulk-fetch API traces expose)."""
        return [self.next_instruction() for _ in range(n)]


class SharedTraceStore:
    """Materializes each ``(seed, slot, app)`` stream once; hands out cursors."""

    def __init__(self) -> None:
        self._streams: Dict[tuple, _Stream] = {}

    def _stream_for(self, profile, slot: int, name: str, seed: int) -> _Stream:
        from repro.workloads.tracegen import TRACEGEN_VERSION

        key = (TRACEGEN_VERSION, seed, slot, name, repr(profile))
        stream = self._streams.get(key)
        if stream is None:
            stream = _Stream(profile, slot, name, seed)
            self._streams[key] = stream
        return stream

    def make_traces(self, apps: Sequence[str], seed: int) -> List[SharedTrace]:
        """One cursor per mix slot — mirrors ``make_generators`` keying."""
        from repro.workloads.profiles import get_profile

        return [
            SharedTrace(self._stream_for(get_profile(name), slot, name, seed),
                        get_profile(name), slot, name, seed)
            for slot, name in enumerate(apps)
        ]

    def rebind(self, trace: SharedTrace) -> None:
        """Reattach an unpickled cursor to its (possibly new) stream."""
        stream = self._stream_for(trace.profile, trace.tid, trace.name, trace.seed)
        trace._stream = stream
        trace._cols = stream.cols

    @property
    def stream_count(self) -> int:
        return len(self._streams)


# ---------------------------------------------------------------------------
# Cells and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchCell:
    """One simulation the batch engine owes a result for.

    The fields mirror :class:`~repro.harness.runner.RunConfig` plus the
    scheduler selection of ``run_adts``/``run_fixed``; a cell's result is
    bit-identical to the corresponding sequential run.
    """

    mix: Union[str, Sequence[str]] = "mix01"
    num_threads: int = 8
    seed: int = 0
    quantum_cycles: int = 2048
    quanta: int = 32
    warmup_quanta: int = 4
    mode: str = "adts"  # "adts" | "fixed"
    policy: str = "icount"  # fixed-mode policy (ADTS always starts on icount)
    heuristic: str = "type3"
    thresholds: Optional[object] = None  # ThresholdConfig; None = defaults
    machine: Optional[SMTConfig] = None
    fault_plan: Optional[object] = None  # FaultPlan

    def total_quanta(self) -> int:
        """Quanta actually simulated (measured window plus warmup)."""
        return self.quanta + self.warmup_quanta


@dataclass
class BatchCellResult:
    """Outcome of one cell — field-for-field what the sequential run yields."""

    index: int
    cell: BatchCell
    ipc: float
    committed: int
    cycles: int
    quantum_ipcs: List[float] = field(default_factory=list)
    scheduler: Dict = field(default_factory=dict)
    fingerprint: str = ""


class _Member:
    """One cell's seat in a group: its controller/injector live here (on the
    member, never on the shared machine), so forking a group never has to
    clone scheduler state — only the machine is pickled."""

    __slots__ = ("index", "cell", "controller", "injector")

    def __init__(self, index: int, cell: BatchCell, controller, injector=None) -> None:
        self.index = index
        self.cell = cell
        self.controller = controller
        self.injector = injector


class _Group:
    __slots__ = ("proc", "members", "hook", "total", "solo")

    def __init__(self, proc, members, hook, total: int, solo: bool) -> None:
        self.proc = proc
        self.members = members
        self.hook = hook
        self.total = total
        self.solo = solo


# ---------------------------------------------------------------------------
# Boundary capture
# ---------------------------------------------------------------------------

#: Signature of a member with no controller: empty queue, no budget, no ops.
_FIXED_SIG: Tuple = ((), 0, ())


class _BoundaryRecorder:
    """Stand-in for the processor *and* the control flags during one
    controller boundary call.

    Records every machine mutation the controller issues instead of
    applying it, so identical mutations from N grouped members collapse to
    one application — and differing mutations are detected and turned into
    a fork before they can touch the shared machine. Reads are served
    pending-first (``policy_name`` reflects a just-recorded switch) so the
    controller observes exactly the state it would sequentially.
    """

    __slots__ = ("_proc", "_pending_policy", "ops")

    def __init__(self, proc) -> None:
        self._proc = proc
        self._pending_policy: Optional[str] = None
        self.ops: List[tuple] = []

    # -- processor surface --------------------------------------------------
    @property
    def policy_name(self) -> str:
        if self._pending_policy is not None:
            return self._pending_policy
        return self._proc.policy_name

    def set_policy(self, policy) -> None:
        self._pending_policy = policy
        self.ops.append(("set_policy", policy))

    # -- ThreadControlFlags surface -----------------------------------------
    def set_fetchable(self, tid: int, fetchable: bool) -> None:
        self.ops.append(("set_fetchable", tid, bool(fetchable)))

    def mark_for_suspension(self, tid: int) -> None:
        self.ops.append(("mark_for_suspension", tid))

    def clear_suspension_mark(self, tid: int) -> None:
        self.ops.append(("clear_suspension_mark", tid))


def _apply_ops(proc, ops: Sequence[tuple]) -> None:
    """Apply one member's recorded boundary mutations to the real machine.

    Equivalent to the sequential in-hook application: between the hook
    callback and the end of ``run_quanta(1)`` the pipeline only advances
    policy-independent bookkeeping (quantum index/start cycle), and
    ``set_policy`` merely swaps the policy object — no cycle-stamped state.
    """
    if not ops:
        return
    from repro.core.flags import ThreadControlFlags

    flags = ThreadControlFlags(proc)
    for op in ops:
        tag = op[0]
        if tag == "set_policy":
            proc.set_policy(op[1])
        elif tag == "set_fetchable":
            flags.set_fetchable(op[1], op[2])
        elif tag == "mark_for_suspension":
            flags.mark_for_suspension(op[1])
        elif tag == "clear_suspension_mark":
            flags.clear_suspension_mark(op[1])
        else:  # pragma: no cover - recorder and applier move in lockstep
            raise BatchDivergenceError(f"unknown recorded op {tag!r}")


def _task_key(task) -> Optional[str]:
    """The part of a queued DT task's side effect the machine can feel.

    ``policy_switch`` carries its target policy (the callback applies it on
    completion). Every other task's effect is either nil (``ipc_check``,
    ``determine_policy``) or a pure function of counter snapshots the whole
    group shares (``identify_clogging``), so name+cost suffice.
    """
    cb = task.on_complete
    if cb is not None and task.name == "policy_switch":
        return cb.args[0].next_policy
    return None


class _GroupHook(SchedulerHook):
    """The shared machine's hook: multiplexes callbacks to every member.

    Mid-quantum it ticks each member's detector thread in lockstep and
    enforces that they consume identical fetch slots (they must — grouped
    members have identical queues). At boundaries it runs each member's
    controller against a :class:`_BoundaryRecorder` and publishes per-member
    signatures for the engine to partition on.
    """

    def __init__(self, members: List[_Member]) -> None:
        self.processor = None
        self.members = members
        self._controllers = [m.controller for m in members if m.controller is not None]
        self._busy = False
        self.boundary_sigs: Optional[List[tuple]] = None
        self.boundary_ops: Optional[List[tuple]] = None

    def attach(self, processor) -> None:
        self.processor = processor

    def refresh_busy(self) -> None:
        self._busy = any(c.detector.busy for c in self._controllers)

    def on_cycle(self, now: int, idle_slots: int) -> int:
        if not self._busy:
            return 0
        ctrls = self._controllers
        first = ctrls[0].detector
        consumed = first.on_cycle(now, idle_slots)
        for ctrl in ctrls[1:]:
            if ctrl.detector.on_cycle(now, idle_slots) != consumed:
                raise BatchDivergenceError(
                    f"grouped detector threads consumed different slot counts "
                    f"at cycle {now}"
                )
        if not first.busy:
            self._busy = False
        return consumed

    def on_quantum_end(self, now: int, record, snapshots) -> None:
        proc = self.processor
        sigs: List[tuple] = []
        ops: List[tuple] = []
        for member in self.members:
            ctrl = member.controller
            if ctrl is None:
                sigs.append(_FIXED_SIG)
                ops.append(())
                continue
            recorder = _BoundaryRecorder(proc)
            real_flags = ctrl.flags
            ctrl.processor = recorder
            ctrl.flags = recorder
            try:
                ctrl.on_quantum_end(now, record, snapshots)
            finally:
                ctrl.processor = proc
                ctrl.flags = real_flags
            det = ctrl.detector
            queue_sig = tuple(
                (t.name, t.instructions, _task_key(t)) for t in det._queue
            )
            recorded = tuple(recorder.ops)
            sigs.append((queue_sig, det._remaining, recorded))
            ops.append(recorded)
        self.boundary_sigs = sigs
        self.boundary_ops = ops


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def _resolve_apps(cell: BatchCell) -> Tuple[str, ...]:
    """Mirror ``build_processor``'s mix resolution exactly."""
    if isinstance(cell.mix, str):
        from repro.workloads import get_mix

        return tuple(get_mix(cell.mix).subset(cell.num_threads, seed=cell.seed))
    return tuple(cell.mix)


def _initial_policy(cell: BatchCell) -> str:
    # ADTS always boots on ICOUNT (§4.3.3); fixed cells run their own policy.
    return "icount" if cell.mode == "adts" else cell.policy


def _scheduler_faulted(cell: BatchCell) -> bool:
    plan = cell.fault_plan
    return plan is not None and plan.any_scheduler_enabled


class BatchEngine:
    """Steps N cells through one process, sharing traces and trajectories.

    Results are bit-identical to running each cell through the sequential
    drivers (``tests/test_fingerprint_golden.py`` pins this). Cells whose
    plan carries scheduler faults run as solo groups — their injector sits
    between machine and controller exactly as in a sequential run, so no
    fault can bleed into (or out of) a grouped cell — but they still share
    trace streams with the rest of the batch.
    """

    def __init__(self, cells: Sequence[BatchCell],
                 store: Optional[SharedTraceStore] = None) -> None:
        self.cells = list(cells)
        self.store = store if store is not None else SharedTraceStore()
        self.telemetry: Dict[str, int] = {
            "cells": len(self.cells),
            "groups_initial": 0,
            "groups_final": 0,
            "forks": 0,
            "quantum_steps": 0,
            "quantum_steps_sequential": sum(c.total_quanta() for c in self.cells),
            "trace_streams": 0,
        }

    # -- group formation ----------------------------------------------------
    def _form_groups(self) -> List[_Group]:
        buckets: Dict[tuple, List[tuple]] = {}
        for index, cell in enumerate(self.cells):
            if cell.mode not in ("adts", "fixed"):
                raise ValueError(f"unknown cell mode {cell.mode!r}")
            apps = _resolve_apps(cell)
            key = (
                apps, cell.seed, repr(cell.machine), cell.quantum_cycles,
                cell.total_quanta(), _initial_policy(cell),
            )
            if _scheduler_faulted(cell):
                # Faulted machines must never share state: the injector
                # perturbs the machine itself, not just the controller.
                key = key + ("solo", index)
            buckets.setdefault(key, []).append((index, cell, apps))
        return [self._build_group(entries) for entries in buckets.values()]

    def _build_group(self, entries: List[tuple]) -> _Group:
        _, cell0, apps = entries[0]
        cfg = cell0.machine or SMTConfig(num_threads=max(len(apps), 1))
        if cfg.num_threads < len(apps):
            raise ValueError("config.num_threads smaller than requested thread count")
        members: List[_Member] = []
        for index, cell, _ in entries:
            controller = None
            if cell.mode == "adts":
                from repro.core.adts import ADTSController
                from repro.core.thresholds import ThresholdConfig

                controller = ADTSController(
                    heuristic=cell.heuristic,
                    thresholds=cell.thresholds or ThresholdConfig(),
                )
            members.append(_Member(index, cell, controller))

        solo = _scheduler_faulted(cell0)
        traces = self.store.make_traces(apps, cell0.seed)
        if solo:
            # Sequential hook chain, verbatim: controller (or nothing)
            # wrapped by this cell's own seeded injector.
            from repro.faults import FaultInjector

            member = members[0]
            injector = FaultInjector(cell0.fault_plan, member.controller)
            member.injector = injector
            machine_hook: Optional[SchedulerHook] = injector
            group_hook = None
        elif any(m.controller is not None for m in members):
            group_hook = _GroupHook(members)
            machine_hook = group_hook
        else:
            group_hook = None
            machine_hook = None
        proc = SMTProcessor(
            cfg, traces, policy=_initial_policy(cell0), hook=machine_hook,
            quantum_cycles=cell0.quantum_cycles, seed=cell0.seed,
        )
        if group_hook is not None:
            for member in members:
                if member.controller is not None:
                    member.controller.attach(proc)
        return _Group(proc, members, group_hook, cell0.total_quanta(), solo)

    # -- stepping -----------------------------------------------------------
    def run(self, progress=None) -> List[BatchCellResult]:
        """Run every cell to completion; returns results in cell order.

        ``progress`` (optional) is called after every lockstep round with
        the number of rounds completed — the supervised executor uses it as
        its worker heartbeat.
        """
        if not self.cells:
            return []
        groups = self._form_groups()
        self.telemetry["groups_initial"] = len(groups)
        pending = [g for g in groups if g.total > 0]
        finished = [g for g in groups if g.total <= 0]
        rounds = 0
        while pending:
            stepped: List[_Group] = []
            for group in pending:
                group.proc.run_quanta(1)
                self.telemetry["quantum_steps"] += 1
                stepped.extend(self._after_quantum(group))
            rounds += 1
            if progress is not None:
                progress(rounds)
            pending = []
            for group in stepped:
                if group.proc.quantum_index >= group.total:
                    finished.append(group)
                else:
                    pending.append(group)
        self.telemetry["groups_final"] = len(finished)
        self.telemetry["trace_streams"] = self.store.stream_count
        return self._results(finished)

    def _after_quantum(self, group: _Group) -> List[_Group]:
        hook = group.hook
        if hook is None:
            return [group]
        sigs, ops = hook.boundary_sigs, hook.boundary_ops
        hook.boundary_sigs = hook.boundary_ops = None
        partitions: Dict[tuple, List[int]] = {}
        for pos, sig in enumerate(sigs):
            partitions.setdefault(sig, []).append(pos)
        if len(partitions) == 1:
            _apply_ops(group.proc, ops[0])
            hook.refresh_busy()
            return [group]

        # Fork: one machine clone per divergent partition. The first
        # partition keeps the original machine; the pristine (pre-ops)
        # state is pickled once and deserialized per extra partition —
        # the same object graph checkpointing already round-trips.
        self.telemetry["forks"] += len(partitions) - 1
        proc = group.proc
        saved_hook = proc.hook
        proc.hook = SchedulerHook()
        blob = pickle.dumps(proc, pickle.HIGHEST_PROTOCOL)
        proc.hook = saved_hook
        out: List[_Group] = []
        first = True
        for sig, positions in partitions.items():
            if first:
                machine = proc
                first = False
            else:
                machine = pickle.loads(blob)
                for ctx in machine.contexts:
                    self.store.rebind(ctx.trace)
            members = [group.members[pos] for pos in positions]
            sub = self._regroup(machine, members, group.total)
            _apply_ops(machine, ops[positions[0]])
            if sub.hook is not None:
                sub.hook.refresh_busy()
            out.append(sub)
        return out

    def _regroup(self, machine, members: List[_Member], total: int) -> _Group:
        controllers = [m.controller for m in members if m.controller is not None]
        if controllers:
            hook: Optional[SchedulerHook] = _GroupHook(members)
            machine.hook = hook
            hook.attach(machine)
            machine._hook_inert = False
            for controller in controllers:
                controller.attach(machine)
        else:
            # An all-fixed partition downgrades to the inert hook, whose
            # per-cycle call the pipeline elides.
            hook = None
            machine.hook = SchedulerHook()
            machine.hook.attach(machine)
            machine._hook_inert = True
        return _Group(machine, members, hook, total, solo=False)

    # -- results ------------------------------------------------------------
    def _results(self, groups: List[_Group]) -> List[BatchCellResult]:
        out: List[Optional[BatchCellResult]] = [None] * len(self.cells)
        for group in groups:
            fingerprint = group.proc.fingerprint()
            history = group.proc.stats.quantum_history
            for member in group.members:
                cell = member.cell
                window = history[cell.warmup_quanta:cell.total_quanta()]
                committed = sum(q.committed for q in window)
                cycles = sum(q.cycles for q in window)
                if cell.mode == "adts":
                    scheduler = {"mode": "adts", "heuristic": cell.heuristic}
                    scheduler.update(member.controller.summary())
                else:
                    scheduler = {"mode": "fixed", "policy": cell.policy}
                if member.injector is not None:
                    scheduler.update(member.injector.summary())
                out[member.index] = BatchCellResult(
                    index=member.index,
                    cell=cell,
                    ipc=committed / cycles if cycles else 0.0,
                    committed=committed,
                    cycles=cycles,
                    quantum_ipcs=[q.ipc for q in window],
                    scheduler=scheduler,
                    fingerprint=fingerprint,
                )
        return out  # type: ignore[return-value]


def run_batch_cells(cells: Sequence[BatchCell], progress=None,
                    store: Optional[SharedTraceStore] = None) -> List[BatchCellResult]:
    """Convenience wrapper: one engine pass over ``cells``."""
    return BatchEngine(cells, store=store).run(progress=progress)

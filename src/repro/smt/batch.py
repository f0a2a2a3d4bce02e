"""Lockstep batch engine: simulate many runs per pass.

A parameter sweep (threshold × heuristic × mix, the Figure 7/8 grid) runs
tens of runs that share one workload: same mix, same seed, same machine
configuration — only the *scheduler* differs. Run sequentially, every run
pays full price for trace generation and cycle stepping even though runs
frequently take identical trajectories for many quanta (a threshold that
never fires leaves every heuristic on ICOUNT; distinct thresholds often
make the same switch decisions). This module exploits both redundancies
without changing a single simulated bit.

The engine speaks the harness's one run description: it takes
:class:`~repro.harness.runner.BatchRunSpec` objects and returns
:class:`~repro.harness.runner.RunResult` objects (fingerprint included),
and it resolves apps and the default machine through the same helper as
:func:`~repro.build_processor`.

* **Shared trace streams** (:class:`SharedTraceStore`) — the instruction
  stream of a thread is a pure function of ``(seed, slot, app,
  profile)``. The store materializes each stream once into column lists,
  pulled on demand from the same seeded generator a sequential run uses,
  and hands every run a lightweight cursor (:class:`SharedTrace`), so a
  25-run sweep generates each trace once instead of 25 times.

* **Trajectory sharing** (:class:`BatchEngine`) — runs whose start state
  is identical (same apps/seed/machine/quantum grid/initial policy) are
  *grouped* onto one simulated machine. The group steps one quantum at a
  time, its members in lockstep; at every boundary each member's
  controller runs against recording proxies that capture the machine
  mutations it *would* make (policy switches, fetch inhibition,
  suspension marks) plus its detector-thread queue. Members whose
  captured signatures agree keep sharing the machine — the recorded ops
  are applied once. Members that disagree are **forked**: the machine is
  pickled once, in memory; the first partition keeps the machine and
  every other partition waits as that pickle plus its members and
  recorded ops. Sharing is therefore exact by construction, not
  approximate: a run's machine always evolves under precisely the
  mutations its own controller issued.

* **Depth-first stepping** — groups run one at a time, each to its end,
  off a stack of trajectories still to run: the batch's initial groups
  and every parked fork partition, which is unpickled only when it is
  popped. A finished trajectory's hook chain is detached
  (:meth:`~repro.smt.pipeline.SchedulerHook.detach`), so refcounting
  frees its machine before the next one is built. A batch's memory is
  therefore one live machine, plus the parked pickles, plus the batch's
  trace streams, however many trajectories it forks into.

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

On numpy: the per-run state here (detector queues, controller ledgers)
is scalar and branchy — per the ``util/randpool.py`` precedent, numpy
pays only for bulk sequential transforms. Trace columns stay plain
Python lists (they are consumed one scalar at a time by the pipeline, and
list indexing beats ndarray scalar reads);
the win comes from deduplicating whole quantum steps, not vectorizing
them. See DESIGN.md §15.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.smt.instruction import Instruction
from repro.smt.pipeline import SchedulerHook, SMTProcessor
from repro.workloads.tracegen import _build_generator

if TYPE_CHECKING:
    from repro.harness.runner import BatchRunSpec, RunResult


class BatchDivergenceError(RuntimeError):
    """A lockstep invariant broke: grouped runs disagreed mid-quantum.

    This is a bug guard, not an expected runtime condition — divergence is
    only legal at quantum boundaries, where it is handled by forking.
    """


# ---------------------------------------------------------------------------
# Shared trace streams
# ---------------------------------------------------------------------------

class _Stream:
    """One materialized instruction stream, shared by every consumer run:
    column lists pulled from the slot's seeded generator on demand."""

    __slots__ = ("cols", "n", "_gen")

    def __init__(self, profile, slot: int, name: str, seed: int) -> None:
        self._gen = _build_generator(profile, slot, name, seed)
        self.cols = [[] for _ in range(8)]
        self.n = 0

    def extend_to(self, i: int) -> None:
        """Grow the stream until instruction ``i`` exists."""
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
    """Per-run cursor over a shared stream (``TraceGenerator`` stand-in).

    Exposes the ``tid``/``seq``/``profile`` surface the pipeline and
    fingerprint read. Pickling (machine forks) drops the
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
        key = (seed, slot, name, repr(profile))
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
# Groups
# ---------------------------------------------------------------------------

class _Member:
    """One run's seat in a group: its controller/injector live here (on the
    member, never on the shared machine), so forking a group never has to
    clone scheduler state — only the machine is pickled."""

    __slots__ = ("index", "spec", "controller", "injector")

    def __init__(self, index: int, spec: "BatchRunSpec", controller) -> None:
        self.index = index
        self.spec = spec
        self.controller = controller
        self.injector = None


class _Group:
    __slots__ = ("proc", "members", "hook", "total")

    def __init__(self, proc, members, hook, total: int) -> None:
        self.proc = proc
        self.members = members
        self.hook = hook
        self.total = total


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

    def detach(self) -> None:
        self.processor = None
        for controller in self._controllers:
            controller.detach()

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

def _scheduler_faulted(spec: "BatchRunSpec") -> bool:
    plan = spec.fault_plan
    return plan is not None and plan.any_scheduler_enabled


class BatchEngine:
    """Steps N runs through one process, sharing traces and trajectories.

    Takes :class:`~repro.harness.runner.BatchRunSpec` objects and returns
    one :class:`~repro.harness.runner.RunResult` per spec, in input order, each
    equal to what the sequential drivers return for it, fingerprint
    included (``tests/test_fingerprint_golden.py`` pins this). Runs whose
    plan carries scheduler faults run as solo groups — their injector sits
    between machine and controller exactly as in a sequential run, so no
    fault can bleed into (or out of) a grouped run — but they still share
    trace streams with the rest of the batch.

    Groups run depth-first, one live machine at a time: a group's members
    step in lockstep to the end of the run, and the partitions a fork
    splits off wait on a stack as the fork-point pickle until the
    trajectory ahead of them has finished and been freed.
    """

    def __init__(self, specs: Sequence["BatchRunSpec"]) -> None:
        self.specs = list(specs)
        self.store = SharedTraceStore()
        self.telemetry: Dict[str, int] = {
            "cells": len(self.specs),
            "groups_initial": 0,
            "groups_final": 0,
            "forks": 0,
            "quantum_steps": 0,
            "quantum_steps_sequential": sum(
                s.config.total_quanta() for s in self.specs
            ),
            "trace_streams": 0,
        }

    # -- group formation ----------------------------------------------------
    def _initial_groups(self) -> List[tuple]:
        """One stack entry per group of runs with an identical start state:
        ``(None, members, (), total)`` — no machine yet, no ops to apply."""
        from repro import resolve_machine

        buckets: Dict[tuple, List[_Member]] = {}
        for index, spec in enumerate(self.specs):
            cfg = spec.config
            apps, machine = resolve_machine(cfg.mix, cfg.num_threads, cfg.seed, cfg.machine)
            key = (
                apps, cfg.seed, repr(machine), cfg.quantum_cycles,
                cfg.total_quanta(), spec.initial_policy,
            )
            if _scheduler_faulted(spec):
                # Faulted machines must never share state: the injector
                # perturbs the machine itself, not just the controller.
                key = key + ("solo", index)
            controller = None
            if spec.mode == "adts":
                from repro.core.adts import ADTSController
                from repro.core.thresholds import ThresholdConfig

                controller = ADTSController(
                    heuristic=spec.heuristic,
                    thresholds=spec.thresholds or ThresholdConfig(),
                )
            buckets.setdefault(key, []).append(_Member(index, spec, controller))
        return [
            (None, members, (), members[0].spec.config.total_quanta())
            for members in buckets.values()
        ]

    def _build_group(self, members: List[_Member], total: int) -> _Group:
        from repro import resolve_machine

        spec0 = members[0].spec
        cfg0 = spec0.config
        apps, machine = resolve_machine(cfg0.mix, cfg0.num_threads, cfg0.seed, cfg0.machine)
        injector = None
        if _scheduler_faulted(spec0):
            # Sequential hook chain, verbatim: controller (or nothing)
            # wrapped by this run's own seeded injector.
            from repro.faults.injector import FaultInjector

            member = members[0]
            injector = member.injector = FaultInjector(spec0.fault_plan, member.controller)
        proc = SMTProcessor(
            machine, self.store.make_traces(apps, cfg0.seed),
            policy=spec0.initial_policy, hook=injector,
            quantum_cycles=cfg0.quantum_cycles, seed=cfg0.seed,
        )
        if injector is not None:
            return _Group(proc, members, None, total)
        return self._regroup(proc, members, total)

    # -- stepping -----------------------------------------------------------
    def run(self, progress=None) -> List["RunResult"]:
        """Run every spec to completion; returns results in input order.

        Groups run depth-first: each is stepped quantum by quantum to its
        end (its members in lockstep), a fork's other partitions wait as
        pickles on the stack, and a finished machine is freed before the
        next is built — so memory holds one live machine, the parked
        pickles and the batch's trace streams.

        ``progress`` (optional) is called after every quantum step with
        the number of steps taken so far — the supervised executor uses it
        as its worker heartbeat.
        """
        if not self.specs:
            return []
        stack = self._initial_groups()
        self.telemetry["groups_initial"] = len(stack)
        stack.reverse()  # the batch's first group runs first
        results: List[Optional["RunResult"]] = [None] * len(self.specs)
        while stack:
            self._run_trajectory(stack, results, progress)
        self.telemetry["trace_streams"] = self.store.stream_count
        return results  # type: ignore[return-value]

    def _run_trajectory(self, stack: List[tuple], results: list, progress) -> None:
        """Pop one trajectory and step it to its end, pushing the partitions
        each fork parks; then record its members' results and detach its
        hook chain, so the machine dies with this frame."""
        group = self._start(*stack.pop())
        telemetry = self.telemetry
        while group.proc.quantum_index < group.total:
            group.proc.run_quanta(1)
            telemetry["quantum_steps"] += 1
            group, parked = self._after_quantum(group)
            stack.extend(reversed(parked))
            if progress is not None:
                progress(telemetry["quantum_steps"])
        telemetry["groups_final"] += 1
        self._record(group, results)
        group.proc.hook.detach()

    def _start(self, blob: Optional[bytes], members: List[_Member], ops: tuple,
               total: int) -> _Group:
        """Put a stack entry on a machine: a fresh one for an initial group,
        else the unpickled fork point with this partition's ops applied."""
        if blob is None:
            return self._build_group(members, total)
        machine = pickle.loads(blob)
        for ctx in machine.contexts:
            self.store.rebind(ctx.trace)
        return self._resume(machine, members, ops, total)

    def _resume(self, machine, members: List[_Member], ops: tuple, total: int) -> _Group:
        group = self._regroup(machine, members, total)
        _apply_ops(machine, ops)
        if group.hook is not None:
            group.hook.refresh_busy()
        return group

    def _after_quantum(self, group: _Group) -> Tuple[_Group, List[tuple]]:
        """Settle a boundary: returns the group that steps on and the stack
        entries of the partitions a fork parked."""
        hook = group.hook
        if hook is None:
            return group, []
        sigs, ops = hook.boundary_sigs, hook.boundary_ops
        hook.boundary_sigs = hook.boundary_ops = None
        partitions: Dict[tuple, List[int]] = {}
        for pos, sig in enumerate(sigs):
            partitions.setdefault(sig, []).append(pos)
        if len(partitions) == 1:
            _apply_ops(group.proc, ops[0])
            hook.refresh_busy()
            return group, []

        # Fork: the pristine (pre-ops) machine is pickled once, in
        # memory (``tests/test_batch.py`` pins the round trip). The first
        # partition keeps the machine; every other one is parked as
        # (pickle, members, ops, total), its controllers detached until it
        # is popped and unpickled.
        self.telemetry["forks"] += len(partitions) - 1
        proc = group.proc
        proc.hook = SchedulerHook()
        blob = pickle.dumps(proc, pickle.HIGHEST_PROTOCOL)
        first, *rest = partitions.values()
        parked: List[tuple] = []
        for positions in rest:
            members = [group.members[pos] for pos in positions]
            for member in members:
                if member.controller is not None:
                    member.controller.detach()
            parked.append((blob, members, ops[positions[0]], group.total))
        members = [group.members[pos] for pos in first]
        return self._resume(proc, members, ops[first[0]], group.total), parked

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
        return _Group(machine, members, hook, total)

    # -- results ------------------------------------------------------------
    def _record(self, group: _Group, results: list) -> None:
        """Store a finished group's members' results at their input index."""
        from repro.harness.runner import measured_result

        fingerprint = group.proc.fingerprint()
        history = group.proc.stats.quantum_history
        for member in group.members:
            results[member.index] = measured_result(
                member.spec, history, fingerprint, member.controller, member.injector
            )

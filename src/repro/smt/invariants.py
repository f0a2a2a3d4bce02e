"""Opt-in runtime invariant checking for the SMT pipeline.

The simulator maintains redundant views of the same machine state — live
occupancy gauges in :class:`~repro.smt.counters.ThreadCounters` mirror the
physical queues, per-thread committed counts mirror the aggregate, quantum
snapshots mirror the record the IPC check reads. The paper's mechanism
*trusts* those mirrors (the detector thread schedules off the counters, not
the queues), so a drifted mirror silently mis-schedules long before it
crashes anything. The :class:`InvariantChecker` closes that hole: once per
quantum boundary it cross-checks every mirror against ground truth and
reports drift as a structured :class:`InvariantViolation`. The gauge
half of those checks is :func:`gauge_violation`, which tests call between
any two cycles.

It is a :class:`~repro.smt.pipeline.SchedulerHook` interposer, installed
*outside* any fault injector, so it always sees the true record/snapshots —
injected telemetry corruption is the watchdog's business (downstream of the
injector), while a violation here means the machine model itself is
inconsistent (a genuine bug or memory corruption).

Three reactions are supported (``mode``):

* ``"raise"`` (default) — raise the violation; a supervisor classifies it
  into its failure taxonomy and can retry/quarantine the cell;
* ``"watchdog"`` — feed the downstream hook a record flagged implausible
  (negative committed count), which trips the ADTS watchdog's plausibility
  check and drops the controller into safe-mode fixed ICOUNT — graceful
  degradation instead of a crash;
* ``"record"`` — tally only (telemetry in ``summary()``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.policies.registry import POLICY_NAMES
from repro.smt.pipeline import SchedulerHook
from repro.smt.regfile import needs_register

_MODES = ("raise", "watchdog", "record")


class InvariantViolation(Exception):
    """One machine invariant failed; carries a machine-readable report.

    Attributes:
        name: stable identifier of the violated invariant.
        cycle: cycle at which the check ran.
        details: the numbers that disagreed.
    """

    def __init__(self, name: str, cycle: int, message: str, **details) -> None:
        self.name = name
        self.cycle = cycle
        self.details = details
        extra = f" ({', '.join(f'{k}={v!r}' for k, v in details.items())})" if details else ""
        super().__init__(f"invariant {name!r} violated at cycle {cycle}: {message}{extra}")


class InvariantChecker(SchedulerHook):
    """Per-quantum cross-check of the pipeline's redundant state views."""

    def __init__(self, inner: Optional[SchedulerHook] = None, mode: str = "raise") -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.inner = inner or SchedulerHook()
        self.mode = mode
        self.processor = None
        self.checked_quanta = 0
        self.violations: List[InvariantViolation] = []
        self._last_committed = 0
        self._last_per_thread_committed: List[int] = []

    # -- SchedulerHook ------------------------------------------------------
    def attach(self, processor) -> None:
        self.processor = processor
        self._last_per_thread_committed = [0] * processor.num_threads
        self.inner.attach(processor)

    def detach(self) -> None:
        self.processor = None
        self.inner.detach()

    def on_cycle(self, now: int, idle_slots: int) -> int:
        return self.inner.on_cycle(now, idle_slots)

    def on_quantum_end(self, now: int, record, snapshots) -> None:
        violation = self._check(now, record, snapshots)
        if violation is not None:
            self.violations.append(violation)
            if self.mode == "raise":
                raise violation
            if self.mode == "watchdog":
                # A physically impossible committed count is guaranteed to
                # fail the ADTS watchdog's plausibility check: the controller
                # discards the boundary and (on a streak) enters safe mode.
                record = dataclasses.replace(record, committed=-1)
        self.checked_quanta += 1
        self.inner.on_quantum_end(now, record, snapshots)

    # -- the invariants -----------------------------------------------------
    def _check(self, now: int, record, snapshots) -> Optional[InvariantViolation]:
        proc = self.processor
        violation = gauge_violation(proc)
        if violation is not None:
            return violation

        # Per-thread/aggregate consistency of this quantum's telemetry.
        snap_committed = sum(s.committed for s in snapshots)
        if snap_committed != record.committed:
            return InvariantViolation(
                "quantum_committed", now,
                "per-thread snapshot committed counts disagree with the record",
                per_thread_sum=snap_committed, record=record.committed,
            )
        stats_per_thread = sum(proc.stats.per_thread_committed.values())
        if stats_per_thread != proc.stats.committed:
            return InvariantViolation(
                "lifetime_committed", now,
                "per-thread lifetime committed counts disagree with the aggregate",
                per_thread_sum=stats_per_thread, aggregate=proc.stats.committed,
            )

        # Monotone committed counts.
        if proc.stats.committed < self._last_committed:
            return InvariantViolation(
                "committed_monotone", now, "aggregate committed count went backwards",
                previous=self._last_committed, current=proc.stats.committed,
            )
        self._last_committed = proc.stats.committed
        for tc in proc.counters:
            if tc.total_committed < self._last_per_thread_committed[tc.tid]:
                return InvariantViolation(
                    "thread_committed_monotone", now,
                    "per-thread committed count went backwards",
                    tid=tc.tid,
                    previous=self._last_per_thread_committed[tc.tid],
                    current=tc.total_committed,
                )
            self._last_per_thread_committed[tc.tid] = tc.total_committed

        # The active policy is a registered one.
        if proc.policy_name not in POLICY_NAMES:
            return InvariantViolation(
                "policy_registered", now, "active fetch policy not in the registry",
                policy=proc.policy_name, registry=list(POLICY_NAMES),
            )
        return None

    # -- telemetry ----------------------------------------------------------
    def summary(self) -> dict:
        """Checker telemetry, merged into ``RunResult.scheduler``."""
        return {
            "invariant_checked_quanta": self.checked_quanta,
            "invariant_violations": len(self.violations),
            "invariant_first_violation": (
                str(self.violations[0]) if self.violations else None
            ),
        }


def gauge_violation(proc) -> Optional[InvariantViolation]:
    """The first way ``proc``'s structures or its thread counters disagree,
    or None: queue occupancies within capacity, every occupancy gauge
    (front end, ROB, int/FP IQ, LSQ) equal to the structure it mirrors,
    the rename pool's per-thread attribution summing to its use and equal
    to each thread's ROB entries that write a register, and no negative
    counter. The dispatch, squash and commit stages keep these counts
    inline, so this is what checks them; it holds between any two cycles.
    """
    now = proc.now
    cfg = proc.config
    regs = proc.regs

    # Occupancy within physical capacity.
    for iq in (proc.iq_int, proc.iq_fp):
        if len(iq) > iq.capacity:
            return InvariantViolation(
                f"iq_{iq.name}_capacity", now, "instruction queue over capacity",
                occupancy=len(iq), capacity=iq.capacity,
            )
    if len(proc.lsq) > proc.lsq.capacity:
        return InvariantViolation(
            "lsq_capacity", now, "LSQ over capacity",
            occupancy=len(proc.lsq), capacity=proc.lsq.capacity,
        )
    if not 0 <= regs.in_use <= regs.capacity:
        return InvariantViolation(
            "rename_pool", now, "rename-register pool accounting out of range",
            in_use=regs.in_use, capacity=regs.capacity,
        )
    if not 0 <= proc._front_total <= cfg.fetch_buffer_entries:
        return InvariantViolation(
            "fetch_buffer", now, "front-end occupancy out of range",
            occupancy=proc._front_total, capacity=cfg.fetch_buffer_entries,
        )

    # Counter gauges agree with the structures they mirror.
    front_sum = 0
    held_sum = 0
    for ctx, tc in zip(proc.contexts, proc.counters):
        tid = ctx.tid
        front_sum += tc.front_end
        held = regs.occupancy_of(tid)
        held_sum += held
        for name, gauge, actual in (
            ("front_end", tc.front_end, len(proc.front_q[tid])),
            ("rob", tc.rob, len(ctx.rob)),
            ("iq_int", tc.iq_int, proc.iq_int.occupancy_of(tid)),
            ("iq_fp", tc.iq_fp, proc.iq_fp.occupancy_of(tid)),
            ("lsq", tc.lsq, proc.lsq.occupancy_of(tid)),
        ):
            if gauge != actual:
                return InvariantViolation(
                    f"{name}_gauge", now,
                    f"{name} gauge disagrees with the structure it mirrors",
                    tid=tid, gauge=gauge, actual=actual,
                )
        writers = sum(1 for instr in ctx.rob if needs_register(instr.kind))
        if held != writers:
            return InvariantViolation(
                "rename_rob", now,
                "registers held disagree with ROB entries that write one",
                tid=tid, held=held, rob_writers=writers,
            )
    if front_sum != proc._front_total:
        return InvariantViolation(
            "front_end_total", now, "per-thread front-end gauges disagree with total",
            per_thread_sum=front_sum, total=proc._front_total,
        )
    if held_sum != regs.in_use:
        return InvariantViolation(
            "rename_attribution", now,
            "per-thread rename-register counts disagree with the pool's use",
            per_thread_sum=held_sum, in_use=regs.in_use,
        )

    # Counter non-negativity (event counters can never go negative).
    for tc in proc.counters:
        for name, value in tc.as_dict().items():
            if value < 0:
                return InvariantViolation(
                    "counter_negative", now, "negative hardware counter",
                    tid=tc.tid, counter=name, value=value,
                )
    return None

"""Runtime fault injection, as a scheduler-hook interposer.

The :class:`FaultInjector` wraps any :class:`~repro.smt.pipeline.SchedulerHook`
(normally an :class:`~repro.core.adts.ADTSController`) and perturbs exactly
the three interfaces the paper's mechanism depends on:

* the **telemetry path** — the quantum record/counter snapshots handed to
  ``on_quantum_end`` can be replayed stale or bit-flipped;
* the **detector thread** — queued DT work can be dropped, delayed behind a
  bogus task, or starved of idle slots for a window;
* the **actuation path** — ``processor.set_policy`` is interposed so switch
  commands can be lost, and spurious switches can be applied behind the
  controller's back; workload threads can be transiently hung.

The pipeline itself is never modified: everything the injector does goes
through public surfaces (hook arguments, ``set_policy``,
``ThreadContext.block_fetch_until``), so a clean run with an injector whose
plan is all-zeros is bit-identical to a run without one.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from typing import Dict, Optional

import numpy as np

from repro.core.detector import DetectorTask
from repro.faults.plan import FaultPlan
from repro.policies.registry import POLICY_NAMES
from repro.smt.counters import QuantumSnapshot
from repro.smt.pipeline import SchedulerHook
from repro.util.randpool import RandPool
from repro.util.seeds import SeedSequencer

#: Snapshot fields eligible for bit flips — every event counter, never the
#: thread id (a corrupt tid would be an out-of-range *address*, which real
#: status-register reads cannot produce).
_CORRUPTIBLE_FIELDS = tuple(f for f in QuantumSnapshot.__slots__ if f != "tid")

#: Bit positions a flip may hit: low bits model subtle skew, high bits model
#: gross (watchdog-detectable) corruption.
_MAX_FLIP_BIT = 16

#: Instructions in the bogus task an injected DT delay queues.
DT_DELAY_INSTRUCTIONS = 4096
#: Cycles an injected DT starvation window lasts.
DT_STARVATION_CYCLES = 512
#: Cycles an injected thread hang blocks the thread's fetch.
THREAD_HANG_CYCLES = 1024
#: Wall-clock seconds an injected worker hang spins: finite, so an
#: *unsupervised* run eventually recovers instead of wedging forever.
WORKER_HANG_SECONDS = 30.0


class FaultInjector(SchedulerHook):
    """Injects a :class:`FaultPlan` around an inner scheduler hook."""

    def __init__(self, plan: FaultPlan, inner: Optional[SchedulerHook] = None) -> None:
        self.plan = plan
        self.inner = inner or SchedulerHook()
        rng = np.random.default_rng(SeedSequencer(plan.seed).seed_for("faults"))
        self.pool = RandPool(rng, batch=1024)
        #: injected-fault tally by fault name.
        self.counts: Dict[str, int] = {}
        self.processor = None
        self._real_set_policy = None
        self._starve_until = -1
        self._prev_record = None
        self._prev_snapshots = None

    # -- bookkeeping ---------------------------------------------------------
    def _hit(self, rate: float) -> bool:
        """One seeded Bernoulli draw; zero-rate faults draw nothing, so
        disabling a family never perturbs another family's stream."""
        return rate > 0.0 and self.pool.bernoulli(rate)

    def _count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def faults_injected(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> dict:
        """Injection telemetry, merged into ``RunResult.scheduler``."""
        return {
            "faults_injected": self.faults_injected,
            "fault_counts": dict(self.counts),
        }

    # -- SchedulerHook ------------------------------------------------------
    def attach(self, processor) -> None:
        self.processor = processor
        self.inner.attach(processor)
        # Interpose the actuation path: every switch command — the inner
        # controller's or the watchdog's — routes through the fault gate.
        self._real_set_policy = processor.set_policy
        processor.set_policy = self._set_policy_gate

    def detach(self) -> None:
        self.processor = None
        self._real_set_policy = None
        self.inner.detach()

    def _set_policy_gate(self, policy) -> None:
        if self._hit(self.plan.policy_drop_rate):
            self._count("policy_drop")
            return
        self._real_set_policy(policy)

    def on_cycle(self, now: int, idle_slots: int) -> int:
        if now < self._starve_until:
            # Forced DT starvation: the detector sees a full fetch buffer.
            self.inner.on_cycle(now, 0)
            return 0
        return self.inner.on_cycle(now, idle_slots)

    def on_quantum_end(self, now: int, record, snapshots) -> None:
        plan = self.plan
        detector = getattr(self.inner, "detector", None)

        # (b) detector-thread faults — applied before the inner hook reads
        # the boundary, so this boundary's own work can be affected.
        if detector is not None:
            if self._hit(plan.dt_drop_rate) and detector.busy:
                detector.drop_all()
                self._count("dt_drop")
            if self._hit(plan.dt_delay_rate):
                detector.enqueue(
                    DetectorTask("fault:dt_delay", DT_DELAY_INSTRUCTIONS), now
                )
                self._count("dt_delay")
        if self._hit(plan.dt_starvation_rate):
            self._starve_until = now + DT_STARVATION_CYCLES
            self._count("dt_starvation")

        # (a) telemetry corruption.
        faulty_record, faulty_snaps = record, snapshots
        if self._hit(plan.counter_stale_rate) and self._prev_record is not None:
            faulty_record, faulty_snaps = self._prev_record, self._prev_snapshots
            self._count("counter_stale")
        elif self._hit(plan.counter_bitflip_rate):
            faulty_record, faulty_snaps = self._bitflip(record, snapshots)
            self._count("counter_bitflip")

        # (c) actuation faults beyond command loss.
        if self._hit(plan.policy_spurious_rate):
            self._real_set_policy(POLICY_NAMES[self.pool.integer(len(POLICY_NAMES))])
            self._count("policy_spurious")

        # (d) transient thread hang in the workload.
        if self._hit(plan.thread_hang_rate):
            tid = self.pool.integer(self.processor.num_threads)
            self.processor.contexts[tid].block_fetch_until(now + THREAD_HANG_CYCLES)
            self._count("thread_hang")

        # (e) process-level faults — the hosting worker itself dies or hangs.
        # These exist to exercise the supervised executor's crash containment
        # and heartbeat-staleness kill; see FaultPlan for why 'all' excludes
        # them.
        if self._hit(plan.worker_crash_rate):
            self._count("worker_crash")  # unobservable from this process
            os.kill(os.getpid(), signal.SIGKILL)
        if self._hit(plan.worker_hang_rate):
            self._count("worker_hang")
            # CPU-bound spin, not sleep: this is the hang a thread-based
            # timeout cannot interrupt and a heartbeat monitor must detect.
            deadline = time.monotonic() + WORKER_HANG_SECONDS
            while time.monotonic() < deadline:
                pass

        self._prev_record, self._prev_snapshots = record, snapshots
        self.inner.on_quantum_end(now, faulty_record, faulty_snaps)

    # -- corruption ---------------------------------------------------------
    def _bitflip(self, record, snapshots):
        """Flip one bit in one counter: either a per-thread snapshot field
        or the aggregate committed count the IPC check reads."""
        target = self.pool.integer(len(snapshots) + 1)
        bit = self.pool.integer(_MAX_FLIP_BIT)
        if target == len(snapshots):
            flipped = dataclasses.replace(record, committed=record.committed ^ (1 << bit))
            return flipped, snapshots
        snap = snapshots[target]
        field = _CORRUPTIBLE_FIELDS[self.pool.integer(len(_CORRUPTIBLE_FIELDS))]
        corrupt = snap.replace(**{field: getattr(snap, field) ^ (1 << bit)})
        out = list(snapshots)
        out[target] = corrupt
        return record, out

"""Job-scheduler symbiosis (paper §3).

The paper argues the detector thread lowers the system job scheduler's
burden: clogging threads are pre-identified in the thread control flags, so
"the system thread ... will look at the flag and suspend a clogging thread
without going through the process of determining which thread to suspend."

This module implements that loop: a :class:`JobPool` holds more software
jobs than hardware contexts; a :class:`JobSchedulerHook` wraps an
:class:`~repro.core.adts.ADTSController` and, at every job-scheduling
interval (a multiple of the DT's scheduling quantum — the paper notes job
quanta are ~milliseconds vs. the DT's 8K cycles), swaps resident jobs:

* ``guided`` mode evicts the DT-flagged cloggers first;
* ``oblivious`` mode evicts round-robin (the Parekh et al. baseline).

Swapped-out jobs keep their trace position and resume later, so the pool
is time-shared, not truncated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.adts import ADTSController
from repro.smt.pipeline import SchedulerHook
from repro.util.seeds import SeedSequencer
from repro.workloads.profiles import get_profile
from repro.workloads.tracegen import TraceGenerator


@dataclass
class Job:
    """One software job: a named program with persistent execution state."""

    app: str
    trace: TraceGenerator
    evictions_as_clogger: int = 0


class JobPool:
    """More jobs than contexts; builds one persistent trace per job."""

    def __init__(self, apps: Sequence[str], seed: int = 0) -> None:
        if not apps:
            raise ValueError("job pool cannot be empty")
        seeds = SeedSequencer(seed)
        self.jobs: List[Job] = []
        for jid, app in enumerate(apps):
            # Trace tid == job id so each job owns a distinct address space
            # regardless of which hardware context it lands on.
            trace = TraceGenerator(get_profile(app), jid, seeds.generator("job", jid, app))
            self.jobs.append(Job(app, trace))

    def __len__(self) -> int:
        return len(self.jobs)


class JobSchedulerHook(SchedulerHook):
    """Time-shares a job pool over the hardware contexts.

    Composes an ADTS controller (policy switching + clogging flags keep
    working); adds job swapping every ``interval_quanta`` scheduling quanta.
    """

    def __init__(
        self,
        pool: JobPool,
        mode: str = "guided",
        interval_quanta: int = 4,
        swaps_per_interval: int = 2,
        adts: Optional[ADTSController] = None,
    ) -> None:
        if mode not in ("guided", "oblivious"):
            raise ValueError("mode must be 'guided' or 'oblivious'")
        if interval_quanta <= 0 or swaps_per_interval < 0:
            raise ValueError("bad scheduling interval parameters")
        self.pool = pool
        self.mode = mode
        self.interval_quanta = interval_quanta
        self.swaps_per_interval = swaps_per_interval
        self.adts = adts or ADTSController()
        self.processor = None
        #: context -> resident job
        self.resident: Dict[int, Job] = {}
        self.waiting: Deque[Job] = deque()
        self._rr_victim = 0
        self.swaps = 0
        self.guided_evictions = 0

    # -- SchedulerHook --------------------------------------------------------
    def attach(self, processor) -> None:
        self.processor = processor
        self.adts.attach(processor)
        n = processor.num_threads
        if len(self.pool) < n:
            raise ValueError("job pool smaller than the number of contexts")
        for tid in range(n):
            self.resident[tid] = self.pool.jobs[tid]
        self.waiting = deque(self.pool.jobs[n:])
        # Bind resident jobs' traces (constructor traces are placeholders
        # when the pool drives the machine).
        for tid, job in self.resident.items():
            processor.contexts[tid].trace = job.trace
            processor.contexts[tid].done_upto = job.trace.seq - 1

    def on_cycle(self, now: int, idle_slots: int) -> int:
        return self.adts.on_cycle(now, idle_slots)

    def on_quantum_end(self, now: int, record, snapshots) -> None:
        self.adts.on_quantum_end(now, record, snapshots)
        if (record.index + 1) % self.interval_quanta == 0:
            self._job_scheduling_pass(now)

    # -- scheduling ----------------------------------------------------------
    def _pick_victims(self, count: int) -> List[int]:
        n = self.processor.num_threads
        victims: List[int] = []
        if self.mode == "guided":
            flagged = [t for t in self.adts.flags.marked_for_suspension() if t < n]
            victims.extend(flagged[:count])
            self.guided_evictions += len(victims)
        while len(victims) < count:
            candidate = self._rr_victim
            self._rr_victim = (self._rr_victim + 1) % n
            if candidate not in victims:
                victims.append(candidate)
        return victims[:count]

    def _job_scheduling_pass(self, now: int) -> None:
        if not self.waiting or self.swaps_per_interval == 0:
            return
        count = min(self.swaps_per_interval, len(self.waiting))
        for tid in self._pick_victims(count):
            incoming = self.waiting.popleft()
            outgoing = self.resident[tid]
            if tid in self.adts.flags.marked_for_suspension():
                outgoing.evictions_as_clogger += 1
                self.adts.flags.clear_suspension_mark(tid)
            self.processor.swap_thread(tid, incoming.trace)
            self.resident[tid] = incoming
            self.waiting.append(outgoing)
            self.swaps += 1

    # -- analysis --------------------------------------------------------------
    def summary(self) -> dict:
        """Scheduling statistics and current residency."""
        return {
            "mode": self.mode,
            "swaps": self.swaps,
            "guided_evictions": self.guided_evictions,
            "resident": {t: j.app for t, j in self.resident.items()},
            "waiting": [j.app for j in self.waiting],
            "adts": self.adts.summary(),
        }

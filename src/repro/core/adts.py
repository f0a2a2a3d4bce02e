"""The ADTS controller: wires the detector thread into the pipeline.

Implements the §4 software architecture (Figure 2/3): at every quantum
boundary the status counters are read; if ``IPC_last < IPC_thold`` the
quantum is low-throughput, Identify_CloggingThreads() marks the clogging
threads' control flags, Determine_NewPolicy() picks a replacement policy,
and Policy_Switch() engages it — all of it *charged to the detector
thread*, which progresses only through idle fetch slots, so the switch
lands some cycles into the next quantum (or is skipped entirely if the DT
is still busy, which the controller records).

Robustness: the controller carries a **watchdog** (§3's implicit contract
that ADTS must degrade gracefully when the machine misbehaves). Two failure
signatures trigger a fallback to safe-mode fixed ICOUNT for
:data:`SAFE_MODE_QUANTA` quanta before re-arming:

* **implausible counter readings** — an IPC outside the machine's physical
  range, per-thread committed counts that exceed the commit bandwidth or go
  negative, per-thread sums that disagree with the aggregate, or a replayed
  (non-monotonic) quantum index — the signatures of stale or bit-flipped
  status registers;
* **persistent decision starvation** — many *consecutive* missed decisions.
  Occasional misses are the paper's benign high-utilization case; an
  unbroken streak means the control loop is effectively dead.

While in safe mode the controller stops consulting the heuristics (garbage
in, garbage out), drops any queued detector-thread work, and re-asserts the
safe policy at every boundary (the actuation path itself may be faulty).
Every fallback is recorded in the decision log and ``summary()``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.clogging import identify_clogging_threads
from repro.core.detector import DetectorTask, DetectorThread
from repro.core.flags import ThreadControlFlags
from repro.core.heuristics import create_heuristic
from repro.core.heuristics.base import Heuristic
from repro.core.history import SwitchQualityLedger
from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig
from repro.smt.pipeline import SchedulerHook

#: DT instruction budgets for the fixed parts of the loop (§4.1); the
#: heuristic's own cost comes from ``Heuristic.cost_instructions``.
CHECK_COST = 64
IDENTIFY_COST = 128
SWITCH_COST = 32


#: Watchdog (graceful degradation). Consecutive missed decisions before
#: fallback: deliberately generous, since isolated misses are the paper's
#: benign high-utilization case, not a fault.
MISSED_DECISION_LIMIT = 8
#: Consecutive implausible counter readings before fallback.
IMPLAUSIBLE_LIMIT = 2
#: Quanta to hold the safe policy before re-arming.
SAFE_MODE_QUANTA = 8
#: The fixed policy engaged during safe mode: ICOUNT, the best-on-average
#: Table-1 policy (§4.3.3).
SAFE_POLICY = "icount"


@dataclass
class DecisionLog:
    """One boundary's decision, for analysis."""

    quantum_index: int
    ipc: float
    low_throughput: bool
    incumbent: str
    chosen: str
    switched: bool
    reason: str = ""
    applied_at_cycle: int = -1


class ADTSController(SchedulerHook):
    """Adaptive Dynamic Thread Scheduling, as a pipeline scheduler hook."""

    def __init__(
        self,
        heuristic: str | Heuristic = "type3",
        thresholds: Optional[ThresholdConfig] = None,
        detector: Optional[DetectorThread] = None,
        instant_dt: bool = False,
        mark_clogging: bool = True,
        inhibit_cloggers: bool = False,
        autotune=None,
    ) -> None:
        self.thresholds = thresholds or ThresholdConfig()
        if isinstance(heuristic, str):
            self.heuristic = create_heuristic(heuristic, thresholds=self.thresholds)
        else:
            self.heuristic = heuristic
        self.detector = detector or DetectorThread(instant=instant_dt)
        self.mark_clogging = mark_clogging
        #: §3's stronger action: "preventing a specific thread from being
        #: fetched". Inhibition lasts one quantum (re-evaluated each
        #: boundary), so no thread can starve indefinitely.
        self.inhibit_cloggers = inhibit_cloggers
        self._inhibited: set = set()
        #: optional ThresholdAutoTuner (§4.3.2's threshold-update kernel).
        self.autotune = autotune
        self.ledger = SwitchQualityLedger()
        self.decisions: List[DecisionLog] = []
        self.missed_decisions = 0
        self.low_throughput_quanta = 0
        # Watchdog state/telemetry.
        self.fallback_events = 0
        self.implausible_quanta = 0
        self.safe_mode_quanta_spent = 0
        self._missed_streak = 0
        self._implausible_streak = 0
        self._safe_until = -1  # first quantum index past safe mode (-1 = armed)
        self._last_seen_index = -1
        self._prev_ipc = 0.0
        self._awaiting_outcome = False
        self._ipc_before_switch = 0.0
        self.processor = None
        self.flags: Optional[ThreadControlFlags] = None
        self._commit_width = 8  # refined at attach()

    # -- SchedulerHook ------------------------------------------------------
    def attach(self, processor) -> None:
        self.processor = processor
        self.flags = ThreadControlFlags(processor)
        self._commit_width = getattr(processor.config, "commit_width", self._commit_width)

    def detach(self) -> None:
        self.processor = None
        self.flags = None

    def on_cycle(self, now: int, idle_slots: int) -> int:
        return self.detector.on_cycle(now, idle_slots)

    def on_quantum_end(self, now: int, record, snapshots) -> None:
        # Fetch inhibition is a one-quantum action: lift it first — always,
        # including in safe mode, so no thread stays inhibited indefinitely.
        if self._inhibited:
            for tid in self._inhibited:
                self.flags.set_fetchable(tid, True)
            self._inhibited.clear()

        plausible = self._plausible(record, snapshots)
        if plausible:
            self._implausible_streak = 0
            if record.index > self._last_seen_index:
                self._last_seen_index = record.index
        else:
            self.implausible_quanta += 1
            self._implausible_streak += 1

        if self.in_safe_mode:
            if record.index < self._safe_until:
                self.safe_mode_quanta_spent += 1
                # Re-assert the fallback every boundary: the actuation path
                # itself may be faulty (dropped or spurious switches).
                if self.processor.policy_name != SAFE_POLICY:
                    self.processor.set_policy(SAFE_POLICY)
                if plausible:
                    self._prev_ipc = record.ipc
                return
            # Safe window served: re-arm the adaptive loop.
            self._safe_until = -1
            self._missed_streak = 0
            self._implausible_streak = 0

        if not plausible:
            # Never feed corrupt telemetry to the learner or the heuristics.
            if self._implausible_streak >= IMPLAUSIBLE_LIMIT:
                self._enter_safe_mode(
                    now,
                    record,
                    f"{self._implausible_streak} consecutive implausible counter readings",
                )
            return

        obs = QuantumObservation.from_snapshots(record, snapshots, prev_ipc=self._prev_ipc)
        # Let the threshold-management kernel re-calibrate (§4.3.2).
        if self.autotune is not None:
            self.thresholds = self.autotune.observe(obs)
            self.heuristic.thresholds = self.thresholds
        # Close out the previous switch's quality measurement.
        self.ledger.record_quantum_ipc(record.ipc)
        if self._awaiting_outcome:
            self.heuristic.record_outcome(record.ipc > self._ipc_before_switch)
            self._awaiting_outcome = False
        self._prev_ipc = record.ipc

        if not obs.low_throughput(self.thresholds):
            return
        self.low_throughput_quanta += 1
        if self.detector.busy:
            # Still chewing on the previous boundary's work: the paper's
            # starvation case. Skip this decision.
            self.missed_decisions += 1
            self._missed_streak += 1
            if self._missed_streak >= MISSED_DECISION_LIMIT:
                self._enter_safe_mode(
                    now, record, f"{self._missed_streak} consecutive missed decisions"
                )
            return
        self._missed_streak = 0

        incumbent = record.policy
        decision = self.heuristic.decide(incumbent, obs)
        log = DecisionLog(
            quantum_index=record.index,
            ipc=record.ipc,
            low_throughput=True,
            incumbent=incumbent,
            chosen=decision.next_policy,
            switched=decision.switched,
            reason=decision.reason,
        )
        self.decisions.append(log)

        # Charge the DT for the whole loop body, then act on completion.
        self.detector.enqueue(DetectorTask("ipc_check", CHECK_COST), now)
        if self.mark_clogging:
            # functools.partial over bound methods (not lambdas) so a
            # machine forked while DT work is queued can pickle the queue.
            self.detector.enqueue(
                DetectorTask(
                    "identify_clogging",
                    IDENTIFY_COST,
                    on_complete=functools.partial(self._apply_clogging, snapshots),
                ),
                now,
            )
        self.detector.enqueue(
            DetectorTask("determine_policy", self.heuristic.cost_instructions), now
        )
        if decision.switched:
            self.detector.enqueue(
                DetectorTask(
                    "policy_switch",
                    SWITCH_COST,
                    on_complete=functools.partial(
                        self._apply_switch, decision, log, record.ipc, record.index
                    ),
                ),
                now,
            )

    # -- watchdog -------------------------------------------------------------
    @property
    def in_safe_mode(self) -> bool:
        """True while the watchdog holds the safe fixed policy."""
        return self._safe_until >= 0

    def _plausible(self, record, snapshots: Sequence) -> bool:
        """Sanity-check one boundary's telemetry against physical limits.

        Catches the signatures of stale or bit-flipped status counters:
        an IPC above the commit width (committed counts beyond the commit
        bandwidth, aggregate or per thread) or negative counts, per-thread
        sums that disagree with the aggregate the IPC check used, and
        replayed quantum indices.
        """
        cycles = record.cycles
        if cycles <= 0:
            return False
        if record.index <= self._last_seen_index:
            return False  # a quantum that is already over: stale counters
        max_commit = cycles * self._commit_width
        committed = record.committed
        if committed < 0 or committed > max_commit:
            return False
        total = 0
        for snap in snapshots:
            if not snap.is_non_negative() or snap.committed > max_commit:
                return False
            total += snap.committed
        if total != committed:
            return False
        return True

    def _enter_safe_mode(self, now: int, record, reason: str) -> None:
        """Fall back to the safe fixed policy for :data:`SAFE_MODE_QUANTA`."""
        self.fallback_events += 1
        dropped = self.detector.drop_all()
        self._awaiting_outcome = False
        self._safe_until = record.index + 1 + SAFE_MODE_QUANTA
        self.processor.set_policy(SAFE_POLICY)
        self.decisions.append(
            DecisionLog(
                quantum_index=record.index,
                ipc=record.ipc,
                low_throughput=True,
                incumbent=record.policy,
                chosen=SAFE_POLICY,
                switched=True,
                reason=(
                    f"watchdog fallback: {reason}; dropped {dropped} queued DT "
                    f"task(s); fixed {SAFE_POLICY} for "
                    f"{SAFE_MODE_QUANTA} quanta"
                ),
                applied_at_cycle=now,
            )
        )

    # -- actions --------------------------------------------------------------
    def _apply_switch(self, decision, log: DecisionLog, ipc_before: float, qindex: int, at_cycle: int) -> None:
        if self.in_safe_mode:
            # A stale switch completing after the watchdog tripped must not
            # override the fallback policy.
            log.reason += " [suppressed: safe mode]"
            return
        self.processor.set_policy(decision.next_policy)
        log.applied_at_cycle = at_cycle
        self.ledger.record_switch(qindex, log.incumbent, decision.next_policy, ipc_before)
        self._awaiting_outcome = True
        self._ipc_before_switch = ipc_before

    def _apply_clogging(self, snapshots, at_cycle: int) -> None:
        reports = identify_clogging_threads(snapshots)
        clogging = [r.tid for r in reports if r.clogging]
        for report in reports:
            if report.clogging:
                self.flags.mark_for_suspension(report.tid)
            else:
                self.flags.clear_suspension_mark(report.tid)
        if self.inhibit_cloggers and clogging:
            # Never inhibit everyone: leave at least half the contexts live.
            for tid in clogging[: max(1, len(reports) // 2)]:
                self.flags.set_fetchable(tid, False)
                self._inhibited.add(tid)

    # -- analysis -----------------------------------------------------------
    @property
    def num_switches(self) -> int:
        return self.ledger.num_switches

    @property
    def benign_probability(self) -> float:
        return self.ledger.benign_probability

    def summary(self) -> dict:
        """Run-level ADTS statistics (switches, quality, DT telemetry)."""
        return {
            "heuristic": self.heuristic.name,
            "ipc_threshold": self.thresholds.ipc_threshold,
            "low_throughput_quanta": self.low_throughput_quanta,
            "switches": self.num_switches,
            "benign_probability": self.benign_probability,
            "missed_decisions": self.missed_decisions,
            "fallback_events": self.fallback_events,
            "implausible_quanta": self.implausible_quanta,
            "safe_mode_quanta": self.safe_mode_quanta_spent,
            "dt_instructions": self.detector.instructions_executed,
            "dt_starved_cycles": self.detector.starved_cycles,
            "dt_dropped_tasks": self.detector.dropped_tasks,
            "dt_mean_task_latency": self.detector.mean_task_latency(),
        }

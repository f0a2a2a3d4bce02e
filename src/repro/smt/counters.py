"""Per-thread hardware status indicators.

The paper's detector thread reads "per-thread status indicators ... updated
by circuitry located throughout the processor pipeline, based upon specific
events such as cache miss, pipeline stalls, population at each stage".
Two kinds of state live here:

* **live occupancy counters** — current population of pipeline structures
  (what ICOUNT/BRCOUNT-style fetch policies sort threads by, every cycle);
* **quantum event counters** — events accumulated since the last scheduling
  quantum boundary (what the detector-thread heuristics test against their
  thresholds), cleared by :meth:`ThreadCounters.end_quantum`.
"""

from __future__ import annotations

from typing import Dict, List

#: Per-cycle decay of the windowed signals (``recent_l1i_misses``,
#: ``recent_stalls``).
DECAY = 0.99


class ThreadCounters:
    """All hardware counters of one hardware context."""

    __slots__ = (
        "tid",
        # live occupancy
        "front_end",
        "iq_int",
        "iq_fp",
        "lsq",
        "rob",
        "in_flight_branches",
        "in_flight_loads",
        "in_flight_mem",
        "outstanding_l1d_misses",
        # decayed/windowed live signals
        "recent_l1i_misses",
        "recent_stalls",
        # lifetime accumulators
        "total_committed",
        "total_fetched",
        "active_cycles",
        # quantum event counters
        "q_fetched",
        "q_committed",
        "q_cond_branches",
        "q_branches",
        "q_mispredicts",
        "q_loads",
        "q_stores",
        "q_l1d_misses",
        "q_l1i_misses",
        "q_l2_misses",
        "q_lsq_full",
        "q_iq_full",
        "q_reg_full",
        "q_squashed",
        "q_stall_cycles",
    )

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.front_end = 0
        self.iq_int = 0
        self.iq_fp = 0
        self.lsq = 0
        self.rob = 0
        self.in_flight_branches = 0
        self.in_flight_loads = 0
        self.in_flight_mem = 0
        self.outstanding_l1d_misses = 0
        self.recent_l1i_misses = 0.0
        self.recent_stalls = 0.0
        self.total_committed = 0
        self.total_fetched = 0
        self.active_cycles = 0
        self._clear_quantum()

    def _clear_quantum(self) -> None:
        self.q_fetched = 0
        self.q_committed = 0
        self.q_cond_branches = 0
        self.q_branches = 0
        self.q_mispredicts = 0
        self.q_loads = 0
        self.q_stores = 0
        self.q_l1d_misses = 0
        self.q_l1i_misses = 0
        self.q_l2_misses = 0
        self.q_lsq_full = 0
        self.q_iq_full = 0
        self.q_reg_full = 0
        self.q_squashed = 0
        self.q_stall_cycles = 0

    def as_dict(self) -> Dict[str, float]:
        """Every counter field by name (state digests, invariant reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    # -- derived live signals ------------------------------------------------
    @property
    def icount(self) -> int:
        """Instructions in the front end plus the instruction queues —
        exactly what Tullsen's ICOUNT prioritizes by."""
        return self.front_end + self.iq_int + self.iq_fp

    @property
    def accumulated_ipc(self) -> float:
        """Lifetime committed IPC of this context (ACCIPC policy input)."""
        return self.total_committed / self.active_cycles if self.active_cycles else 0.0

    # -- quantum bookkeeping ---------------------------------------------------
    def end_quantum(self) -> "QuantumSnapshot":
        """Freeze this quantum's event counts and clear the counters."""
        snap = QuantumSnapshot(
            tid=self.tid,
            fetched=self.q_fetched,
            committed=self.q_committed,
            cond_branches=self.q_cond_branches,
            branches=self.q_branches,
            mispredicts=self.q_mispredicts,
            loads=self.q_loads,
            stores=self.q_stores,
            l1d_misses=self.q_l1d_misses,
            l1i_misses=self.q_l1i_misses,
            l2_misses=self.q_l2_misses,
            lsq_full=self.q_lsq_full,
            iq_full=self.q_iq_full,
            reg_full=self.q_reg_full,
            squashed=self.q_squashed,
            stall_cycles=self.q_stall_cycles,
        )
        self._clear_quantum()
        return snap


class QuantumSnapshot:
    """Immutable per-thread event counts for one finished quantum."""

    __slots__ = (
        "tid", "fetched", "committed", "cond_branches", "branches",
        "mispredicts", "loads", "stores", "l1d_misses", "l1i_misses",
        "l2_misses", "lsq_full", "iq_full", "reg_full", "squashed",
        "stall_cycles",
    )

    def __init__(self, **kwargs: int) -> None:
        for name in self.__slots__:
            setattr(self, name, kwargs[name])

    @property
    def l1_misses(self) -> int:
        return self.l1d_misses + self.l1i_misses

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly view."""
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **overrides: int) -> "QuantumSnapshot":
        """A copy with some fields overridden (fault injection and
        what-if analysis; the snapshot itself stays immutable)."""
        data = self.as_dict()
        data.update(overrides)
        return QuantumSnapshot(**data)

    def is_non_negative(self) -> bool:
        """Basic integrity: hardware event counters can never go negative.

        A negative field means the reading is corrupt (or a model bug);
        the ADTS watchdog treats either as implausible telemetry.
        """
        return all(getattr(self, name) >= 0 for name in self.__slots__)


class CounterBank:
    """The counters of all hardware contexts, plus aggregates."""

    __slots__ = ("threads",)

    def __init__(self, num_threads: int) -> None:
        self.threads: List[ThreadCounters] = [ThreadCounters(t) for t in range(num_threads)]

    def __getitem__(self, tid: int) -> ThreadCounters:
        return self.threads[tid]

    def __len__(self) -> int:
        return len(self.threads)

    def __iter__(self):
        return iter(self.threads)

    def tick_all(self) -> None:
        """Per-cycle decay plus active-cycle accounting, fused into one
        pass over the bank (the two updates are independent per thread).
        Multiplying an exactly-zero signal is skipped: ``0.0 * f == 0.0``
        bit-for-bit, and most signals sit at zero most of the time."""
        for t in self.threads:
            if t.recent_l1i_misses != 0.0:
                t.recent_l1i_misses *= DECAY
            if t.recent_stalls != 0.0:
                t.recent_stalls *= DECAY
            t.active_cycles += 1

    def end_quantum(self) -> List[QuantumSnapshot]:
        """Snapshot and clear every thread's quantum counters."""
        return [t.end_quantum() for t in self.threads]

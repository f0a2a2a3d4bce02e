"""Pipeline event tracing.

An optional observer the processor calls at each instruction lifecycle
transition. Useful for debugging scheduling pathologies (who clogged the
IQ? how long did the wrong path last?) and for the per-instruction latency
breakdowns the tests use to validate timing. Disabled (None) by default —
a single ``if tracer:`` test per event keeps the hot loop clean.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from repro.smt.instruction import KIND_NAMES, Instruction

#: Lifecycle stages, in pipeline order.
EVENTS = ("fetch", "dispatch", "issue", "complete", "commit", "squash")

#: Events the ring buffer retains; older ones drop off.
CAPACITY = 100_000


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle transition."""

    cycle: int
    event: str
    tid: int
    seq: int
    kind: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.cycle:>8} {self.event:<8} t{self.tid}#{self.seq} {self.kind}"


class PipelineTracer:
    """Bounded ring buffer of pipeline events with query helpers."""

    def __init__(self) -> None:
        self.events: Deque[TraceEvent] = deque(maxlen=CAPACITY)
        self.counts: Dict[str, int] = {e: 0 for e in EVENTS}

    # -- recording (called by the pipeline) ---------------------------------
    def record(self, cycle: int, event: str, instr: Instruction) -> None:
        """Append one lifecycle event (called by the pipeline)."""
        self.events.append(
            TraceEvent(cycle, event, instr.tid, instr.seq, KIND_NAMES[instr.kind])
        )
        self.counts[event] += 1

    # -- queries --------------------------------------------------------------
    def for_instruction(self, tid: int, seq: int) -> List[TraceEvent]:
        """All retained events of one dynamic instruction."""
        return [e for e in self.events if e.tid == tid and e.seq == seq]

    def lifecycle_latencies(self, tid: int, seq: int) -> Dict[str, int]:
        """Cycle deltas between consecutive lifecycle stages of one
        instruction (e.g. ``{"fetch->dispatch": 4, ...}``)."""
        events = sorted(self.for_instruction(tid, seq), key=lambda e: e.cycle)
        out: Dict[str, int] = {}
        for a, b in zip(events, events[1:]):
            out[f"{a.event}->{b.event}"] = b.cycle - a.cycle
        return out

    def window(self, start_cycle: int, end_cycle: int) -> List[TraceEvent]:
        """Events in the half-open cycle range [start, end)."""
        return [e for e in self.events if start_cycle <= e.cycle < end_cycle]

    def render(self, limit: int = 50) -> str:
        """Plain-text rendering of the last ``limit`` events."""
        rows = list(self.events)[-limit:]
        header = f"{'cycle':>8} {'event':<8} instr"
        return "\n".join([header] + [str(e) for e in rows])

    def clear(self) -> None:
        """Drop all retained events and counts."""
        self.events.clear()
        self.counts = {e: 0 for e in EVENTS}

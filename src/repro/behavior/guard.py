"""In-service drift guard: rolling-window comparison against a baseline.

The guard runs inside the service front door's (``ShardedService``) pump
loop. Each ``observe(now, counters)`` appends the front door's flat
counter map (``stats()["counters"]``) to a sliding window; once the
window spans enough admitted traffic the guard computes windowed
per-request rates (:func:`~repro.behavior.profile.service_rates`) and
compares them against the baseline profile's ``rate.*`` metrics with
:func:`~repro.behavior.drift.compute_drift`.

On *sustained* drift it escalates through the robustness ladder instead
of aborting — mirroring the Autoscaler's hysteresis (consecutive-streak
thresholds, cooldown, bounded event log) so a single noisy window never
flaps the guard:

* level 0 ``steady``   — baseline and live window agree,
* level 1 ``warning``  — sustained warn: telemetry event + log.warning,
* level 2 ``drifting`` — sustained drift: event, log.warning, and
  (opt-in) degradation pressure: services
  answer degradable requests with the fast model while the guard holds
  level 2. Requests are still answered exactly once — degradation is a
  quality knob, never a drop — so the drain contract holds.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional

from repro.behavior.drift import (
    VERDICT_DRIFT,
    VERDICT_OK,
    DriftConfig,
    DriftReport,
    compute_drift,
)
from repro.behavior.profile import RATE_DENOMINATOR, service_rates

log = logging.getLogger("repro.behavior")

#: Guard levels, index == level.
LEVELS = ("steady", "warning", "drifting")

#: Snapshots kept in the sliding window; the rates are computed across
#: the whole window (oldest vs newest).
WINDOW = 64
#: Admitted requests the window must span before any comparison runs —
#: tiny windows are all noise.
MIN_SUBMITTED = 8
#: Consecutive non-ok comparisons before escalating to level 1.
WARN_STREAK = 4
#: Consecutive ``drift`` comparisons before escalating to level 2.
DRIFT_STREAK = 6
#: Consecutive ``ok`` comparisons before stepping back down one level
#: (never straight to steady).
CLEAR_STREAK = 6
#: Minimum seconds between level *changes*.
COOLDOWN_S = 2.0
#: Bound on the retained event log.
MAX_EVENTS = 256
#: Tolerance bands for the windowed comparison. Rates are per-request
#: fractions, so the floor must be far below 1.0. The bands are wide by
#: design: a rolling window is compared against the baseline's *whole-run*
#: rates, and load phases (burst, drain) legitimately deviate from the run
#: average. Only sustained, large departures should climb the ladder.
DRIFT = DriftConfig(rel_tol=0.5, abs_floor=0.1, warn_fraction=0.75)


@dataclass(frozen=True)
class GuardEvent:
    """One guard level transition (or periodic drift re-assertion)."""

    t: float
    kind: str  # escalate | clear
    level: int
    verdict: str
    detail: str

    def to_dict(self) -> dict:
        """JSON-ready form for event streams and reports."""
        return {
            "t": round(self.t, 6),
            "kind": self.kind,
            "level": self.level,
            "state": LEVELS[self.level],
            "verdict": self.verdict,
            "detail": self.detail,
        }


class DriftGuard:
    """Clock-agnostic rolling drift detector with escalation hysteresis.

    With ``degrade_on_drift`` (``--drift-degrade``), :attr:`degrade_active`
    goes high at level 2 and services answer degradable requests with the
    fast model until the guard steps down.
    """

    def __init__(
        self,
        baseline: Mapping[str, float],
        degrade_on_drift: bool = False,
    ) -> None:
        # Only the baseline's windowed-rate metrics are comparable online.
        metrics = getattr(baseline, "metrics", baseline)
        self.baseline: Dict[str, float] = {
            k: float(v) for k, v in metrics.items() if k.startswith("rate.")
        }
        if not self.baseline:
            raise ValueError("baseline carries no rate.* metrics")
        self.baseline_id = getattr(baseline, "profile_id", None)
        self.degrade_on_drift = degrade_on_drift
        self._window: Deque[Mapping[str, float]] = deque(maxlen=WINDOW)
        self.level = 0
        self.last_report: Optional[DriftReport] = None
        self.last_verdict: Optional[str] = None
        self._bad_streak = 0  # consecutive non-ok comparisons
        self._drift_streak = 0  # consecutive drift comparisons
        self._ok_streak = 0
        self._last_change_t: Optional[float] = None
        self.comparisons = 0
        self.escalations = 0
        self.clears = 0
        self.events: List[GuardEvent] = []
        self._pending: Deque[GuardEvent] = deque()

    # -- state ---------------------------------------------------------------
    @property
    def state(self) -> str:
        return LEVELS[self.level]

    @property
    def degrade_active(self) -> bool:
        """Whether services should degrade degradable requests now."""
        return self.degrade_on_drift and self.level >= 2

    # -- observation ---------------------------------------------------------
    def observe(self, now: float, counters: Mapping[str, float]) -> None:
        """Feed one snapshot of the front door's counter map; maybe change
        level."""
        self._window.append(counters)
        if len(self._window) < 2:
            return
        oldest = self._window[0]
        span = counters.get(RATE_DENOMINATOR, 0) - oldest.get(RATE_DENOMINATOR, 0)
        if span < MIN_SUBMITTED:
            return
        rates = service_rates(counters, oldest)
        if not rates:
            return
        # Pin the comparison to the baseline's keyset: schema growth in
        # the live counter map must not read as drift.
        current = {k: rates[k] for k in self.baseline if k in rates}
        report = compute_drift(self.baseline, current, DRIFT)
        self.comparisons += 1
        self.last_report = report
        self.last_verdict = report.verdict
        self._advance(now, report)

    # -- hysteresis ladder ---------------------------------------------------
    def _advance(self, now: float, report: DriftReport) -> None:
        if report.verdict == VERDICT_OK:
            self._ok_streak += 1
            self._bad_streak = 0
            self._drift_streak = 0
        else:
            self._ok_streak = 0
            self._bad_streak += 1
            if report.verdict == VERDICT_DRIFT:
                self._drift_streak += 1
            else:
                self._drift_streak = 0

        target = self.level
        if self.level < 2 and self._drift_streak >= DRIFT_STREAK:
            target = 2
        elif self.level < 1 and self._bad_streak >= WARN_STREAK:
            target = 1
        elif self.level > 0 and self._ok_streak >= CLEAR_STREAK:
            target = self.level - 1

        if target == self.level:
            return
        if (
            self._last_change_t is not None
            and now - self._last_change_t < COOLDOWN_S
        ):
            return
        kind = "escalate" if target > self.level else "clear"
        self.level = target
        self._last_change_t = now
        # Streaks restart at the new level so stepping down requires
        # fresh evidence, not leftovers from the climb.
        self._ok_streak = 0
        self._bad_streak = 0
        self._drift_streak = 0
        worst = report.worst
        detail = report.summary() if worst is None else str(worst)
        event = GuardEvent(
            t=now,
            kind=kind,
            level=target,
            verdict=report.verdict,
            detail=detail,
        )
        self._record(event)
        if kind == "escalate":
            self.escalations += 1
            log.warning(
                "drift guard %s (baseline %s): %s",
                LEVELS[target],
                self.baseline_id,
                detail,
            )
        else:
            self.clears += 1
            log.info(
                "drift guard stepped down to %s (baseline %s)",
                LEVELS[target],
                self.baseline_id,
            )

    def _record(self, event: GuardEvent) -> None:
        self.events.append(event)
        if len(self.events) > MAX_EVENTS:
            del self.events[:-MAX_EVENTS]
        self._pending.append(event)

    # -- telemetry -----------------------------------------------------------
    def take_events(self) -> List[GuardEvent]:
        """Drain events recorded since the last call (for ServeLoop)."""
        out = list(self._pending)
        self._pending.clear()
        return out

    def summary(self) -> Dict[str, object]:
        """Full telemetry for ``stats()`` / reports."""
        return {
            "baseline": self.baseline_id,
            "state": self.state,
            "last_verdict": self.last_verdict,
            "comparisons": self.comparisons,
            "escalations": self.escalations,
            "degrade_active": self.degrade_active,
            "clears": self.clears,
            "window": len(self._window),
            "tracked_rates": sorted(self.baseline),
            "last_report": (
                self.last_report.to_dict()
                if self.last_report is not None
                else None
            ),
            "events": [e.to_dict() for e in self.events[-16:]],
        }

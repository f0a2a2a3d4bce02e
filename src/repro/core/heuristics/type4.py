"""Type 4 — Type 3' plus the switching history buffer (§4.3.3).

Each switching case is keyed by (incumbent policy, condition values); the
buffer counts positive and negative outcomes per case. "Before making the
final decision, poscnt and negcnt are compared. If poscnt is greater, then
a regular switching is made. Otherwise, the opposite direction will be
chosen" — the opposite being the third policy of the {ICOUNT, BRCOUNT,
L1MISSCOUNT} triangle.

(The paper's own conclusion: this is *not* worth it — "there seemed to be
no correlation in time domain regarding the fetch policies". The
reproduction keeps it faithful so Figure 7(d)'s extra malignant switches
can be observed.)
"""

from __future__ import annotations

from repro.core.heuristics.base import Decision
from repro.core.heuristics.type3 import Type3GradientHeuristic
from repro.core.history import SwitchHistoryBuffer
from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig

_TRIANGLE = {"icount", "brcount", "l1misscount"}

#: Switching cases the history buffer holds.
HISTORY_CAPACITY = 64


class Type4Heuristic(Type3GradientHeuristic):
    name = "type4"
    cost_instructions = 192

    def __init__(self, thresholds: ThresholdConfig | None = None) -> None:
        super().__init__(thresholds)
        self.history = SwitchHistoryBuffer(HISTORY_CAPACITY)

    def decide(self, incumbent: str, obs: QuantumObservation) -> Decision:
        tentative = super().decide(incumbent, obs)
        if not tentative.switched:
            return tentative
        key = (incumbent, obs.cond_mem(self.thresholds), obs.cond_br(self.thresholds))
        entry = self.history.lookup(key)
        if entry.poscnt == entry.negcnt == 0 or entry.favourable:
            choice, how = tentative.next_policy, "regular"
        else:
            opposite = _TRIANGLE - {incumbent, tentative.next_policy}
            choice = opposite.pop() if opposite else tentative.next_policy
            how = "opposite (history unfavourable)"
        self.history.note_switch(key)
        return Decision(
            choice,
            switched=choice != incumbent,
            reason=f"type4 {how} [{tentative.reason}]",
        )

    def record_outcome(self, improved: bool) -> None:
        self.history.record_outcome(improved)

    def reset(self) -> None:
        self.history = SwitchHistoryBuffer(HISTORY_CAPACITY)

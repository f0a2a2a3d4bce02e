"""Type 2 — fixed three-state cycle (Figure 5).

Like Type 1 but with L1MISSCOUNT added to the finite state machine; the
transition order is ICOUNT → L1MISSCOUNT → BRCOUNT → ICOUNT → … ("the
variants based on this scheme can be made by changing the sequence of the
transitions"), still without consulting any status indicator.
"""

from __future__ import annotations

from repro.core.heuristics.base import Decision, Heuristic
from repro.core.quantum import QuantumObservation

#: The Figure 5 cycle.
SEQUENCE = ("icount", "l1misscount", "brcount")


class Type2Heuristic(Heuristic):
    name = "type2"
    cost_instructions = 24

    def decide(self, incumbent: str, obs: QuantumObservation) -> Decision:
        try:
            idx = SEQUENCE.index(incumbent)
        except ValueError:
            idx = -1  # unknown incumbent: restart the cycle at its head
        nxt = SEQUENCE[(idx + 1) % len(SEQUENCE)]
        return Decision(nxt, switched=nxt != incumbent, reason="type2 cyclic transition")

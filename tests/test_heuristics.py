"""Tests for the Type 1–4 policy-determination heuristics."""

import pytest

from repro.core.heuristics import HEURISTICS, HEURISTIC_LABELS, create_heuristic
from repro.core.heuristics.type1 import Type1Heuristic
from repro.core.heuristics.type2 import Type2Heuristic
from repro.core.heuristics.type3 import Type3GradientHeuristic, Type3Heuristic
from repro.core.heuristics.type4 import Type4Heuristic
from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig


def obs(ipc=1.0, prev=None, l1=0.0, lsq=0.0, mis=0.0, cbr=0.0, index=0):
    # Default prev == ipc (flat gradient) so gradient-gated heuristics
    # behave like plain Type 3 unless a test sets the gradient explicitly.
    return QuantumObservation(
        index=index, cycles=1000, ipc=ipc, prev_ipc=ipc if prev is None else prev,
        l1_miss_rate=l1, lsq_full_rate=lsq, mispredict_rate=mis, cond_branch_rate=cbr,
    )


#: Thresholds where COND_MEM fires at l1 > 0.1 and COND_BR at mis > 0.01.
TH = ThresholdConfig(
    ipc_threshold=2.0, l1_miss_rate=0.1, lsq_full_rate=10.0,
    mispredict_rate=0.01, cond_branch_rate=10.0,
)

MEM_OBS = obs(l1=0.5)
BR_OBS = obs(mis=0.5)
BOTH_OBS = obs(l1=0.5, mis=0.5)
NEITHER_OBS = obs()


class TestRegistry:
    def test_five_heuristics(self):
        assert set(HEURISTICS) == {"type1", "type2", "type3", "type3g", "type4"}

    def test_labels_match_paper(self):
        assert HEURISTIC_LABELS["type3g"] == "Type 3'"

    def test_create_unknown(self):
        with pytest.raises(KeyError):
            create_heuristic("type9")

    def test_costs_grow_with_sophistication(self):
        costs = [HEURISTICS[n]().cost_instructions for n in
                 ("type1", "type2", "type3", "type3g", "type4")]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]


class TestType1:
    def test_flips_between_icount_and_brcount(self):
        h = Type1Heuristic(TH)
        d = h.decide("icount", NEITHER_OBS)
        assert d.next_policy == "brcount" and d.switched
        d = h.decide("brcount", NEITHER_OBS)
        assert d.next_policy == "icount" and d.switched

    def test_unknown_incumbent_falls_back(self):
        h = Type1Heuristic(TH)
        assert h.decide("rr", NEITHER_OBS).next_policy == "icount"

    def test_ignores_conditions(self):
        h = Type1Heuristic(TH)
        assert h.decide("icount", MEM_OBS).next_policy == "brcount"


class TestType2:
    def test_cycles_through_three_states(self):
        h = Type2Heuristic(TH)
        p = "icount"
        seen = []
        for _ in range(3):
            p = h.decide(p, NEITHER_OBS).next_policy
            seen.append(p)
        assert seen == ["l1misscount", "brcount", "icount"]

    def test_unknown_incumbent_restarts_cycle(self):
        h = Type2Heuristic(TH)
        assert h.decide("accipc", NEITHER_OBS).next_policy == "icount"


class TestType3:
    def test_from_icount_cond_mem_goes_l1(self):
        h = Type3Heuristic(TH)
        assert h.decide("icount", MEM_OBS).next_policy == "l1misscount"

    def test_from_icount_cond_br_goes_brcount(self):
        h = Type3Heuristic(TH)
        assert h.decide("icount", BR_OBS).next_policy == "brcount"

    def test_from_icount_mem_takes_priority(self):
        h = Type3Heuristic(TH)
        assert h.decide("icount", BOTH_OBS).next_policy == "l1misscount"

    def test_from_icount_no_condition_stays(self):
        h = Type3Heuristic(TH)
        d = h.decide("icount", NEITHER_OBS)
        assert d.next_policy == "icount" and not d.switched

    def test_from_brcount_mem_goes_l1(self):
        h = Type3Heuristic(TH)
        assert h.decide("brcount", MEM_OBS).next_policy == "l1misscount"

    def test_from_brcount_no_mem_falls_back_icount(self):
        h = Type3Heuristic(TH)
        assert h.decide("brcount", BR_OBS).next_policy == "icount"

    def test_from_l1miss_br_goes_brcount(self):
        h = Type3Heuristic(TH)
        assert h.decide("l1misscount", BR_OBS).next_policy == "brcount"

    def test_from_l1miss_no_br_falls_back_icount(self):
        h = Type3Heuristic(TH)
        assert h.decide("l1misscount", MEM_OBS).next_policy == "icount"

    def test_never_rechooses_failing_incumbent(self):
        h = Type3Heuristic(TH)
        for incumbent in ("brcount", "l1misscount"):
            for o in (MEM_OBS, BR_OBS, BOTH_OBS, NEITHER_OBS):
                assert h.decide(incumbent, o).next_policy != incumbent


class TestType3Gradient:
    def test_positive_gradient_holds(self):
        h = Type3GradientHeuristic(TH)
        rising = obs(ipc=1.5, prev=1.0, l1=0.5)
        d = h.decide("icount", rising)
        assert not d.switched and "gradient" in d.reason

    def test_negative_gradient_behaves_like_type3(self):
        h = Type3GradientHeuristic(TH)
        falling = obs(ipc=1.0, prev=1.5, l1=0.5)
        assert h.decide("icount", falling).next_policy == "l1misscount"

    def test_flat_gradient_switches(self):
        h = Type3GradientHeuristic(TH)
        assert h.decide("icount", obs(ipc=1.0, prev=1.0, mis=0.5)).switched


class TestType4:
    def test_first_time_uses_regular_transition(self):
        h = Type4Heuristic(TH)
        assert h.decide("icount", BR_OBS).next_policy == "brcount"

    def test_bad_history_inverts_direction(self):
        h = Type4Heuristic(TH)
        # Teach it that icount->brcount under COND_BR goes badly.
        for _ in range(3):
            d = h.decide("icount", BR_OBS)
            h.record_outcome(False)
        d = h.decide("icount", BR_OBS)
        # Paper's example: the opposite of BRCOUNT (from ICOUNT) is
        # L1MISSCOUNT.
        assert d.next_policy == "l1misscount"
        assert "opposite" in d.reason

    def test_good_history_keeps_regular(self):
        h = Type4Heuristic(TH)
        d = h.decide("icount", BR_OBS)
        h.record_outcome(True)
        d = h.decide("icount", BR_OBS)
        assert d.next_policy == "brcount"

    def test_distinct_condition_cases_tracked_separately(self):
        h = Type4Heuristic(TH)
        h.decide("icount", BR_OBS)
        h.record_outcome(False)
        # Different condition signature: fresh history, regular transition.
        assert h.decide("icount", MEM_OBS).next_policy == "l1misscount"

    def test_gradient_hold_inherited(self):
        h = Type4Heuristic(TH)
        rising = obs(ipc=2.0, prev=1.0, mis=0.5)
        assert not h.decide("icount", rising).switched

    def test_reset_clears_history(self):
        h = Type4Heuristic(TH)
        h.decide("icount", BR_OBS)
        h.record_outcome(False)
        h.reset()
        assert len(h.history) == 0

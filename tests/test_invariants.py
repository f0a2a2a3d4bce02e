"""Tests for the runtime invariant checker (repro.smt.invariants)."""

import pytest

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.harness.runner import RunConfig, run_adts, run_fixed
from repro.smt.invariants import InvariantChecker, InvariantViolation


def _checked_proc(mode="raise", hook_inner=None, mix="mix02", seed=0):
    checker = InvariantChecker(hook_inner, mode=mode)
    proc = build_processor(mix=mix, seed=seed, hook=checker, quantum_cycles=256)
    return proc, checker


class TestCleanRuns:
    """A healthy simulator must never trip the checker."""

    @pytest.mark.parametrize("mix", ["mix02", "mix05"])
    def test_fixed_run_is_invariant_clean(self, mix):
        proc, checker = _checked_proc(mix=mix)
        proc.run_quanta(6)
        assert checker.checked_quanta == 6
        assert checker.violations == []

    def test_adts_run_is_invariant_clean(self):
        ctrl = ADTSController(heuristic="type3",
                              thresholds=ThresholdConfig(ipc_threshold=2.0))
        proc, checker = _checked_proc(hook_inner=ctrl, mix="mix05")
        proc.run_quanta(8)
        assert checker.checked_quanta == 8
        assert checker.violations == []

    def test_checking_does_not_change_results(self):
        cfg = RunConfig(mix="mix05", quanta=4, warmup_quanta=1,
                        quantum_cycles=512, seed=3)
        plain = run_adts(cfg)
        checked = run_adts(cfg, invariants="raise")
        assert checked.ipc == plain.ipc
        assert checked.quantum_ipcs == plain.quantum_ipcs
        assert checked.scheduler["invariant_violations"] == 0

    def test_summary_exposed_via_run_result(self):
        cfg = RunConfig(mix="mix02", quanta=2, warmup_quanta=1,
                        quantum_cycles=256, seed=0)
        r = run_fixed(cfg, invariants="record")
        assert r.scheduler["invariant_checked_quanta"] == 3
        assert r.scheduler["invariant_first_violation"] is None


class TestViolationDetection:
    """Deliberately corrupted mirrors must be caught, named and reported."""

    def _run_to_boundary(self, mode):
        proc, checker = _checked_proc(mode=mode)
        proc.run_quanta(1)
        return proc, checker

    def test_gauge_drift_raises_structured_violation(self):
        proc, checker = self._run_to_boundary("raise")
        proc.counters[0].rob += 7  # simulated counter corruption
        with pytest.raises(InvariantViolation) as exc:
            proc.run_quanta(1)
        assert exc.value.name == "rob_gauge"
        assert exc.value.details["tid"] == 0
        assert exc.value.cycle == proc.now

    def test_negative_counter_detected(self):
        proc, checker = self._run_to_boundary("raise")
        proc.counters[1].total_committed = -10**9
        with pytest.raises(InvariantViolation) as exc:
            proc.run_quanta(1)
        assert exc.value.name in ("counter_negative", "thread_committed_monotone")

    def test_monotonicity_violation_detected(self):
        proc, checker = self._run_to_boundary("raise")
        # Rewind the aggregate: committed work can never un-commit. The
        # rewind is caught either as a per-quantum telemetry mismatch or,
        # if the quantum's deltas still reconcile, as a monotonicity break.
        proc.stats.committed = 0
        for tid in proc.stats.per_thread_committed:
            proc.stats.per_thread_committed[tid] = 0
        with pytest.raises(InvariantViolation) as exc:
            proc.run_quanta(1)
        assert exc.value.name in ("committed_monotone", "quantum_committed")

    def test_record_mode_tallies_without_raising(self):
        proc, checker = self._run_to_boundary("record")
        proc.counters[0].rob += 7
        proc.run_quanta(2)  # corruption persists: flagged every boundary
        assert checker.checked_quanta == 3
        assert len(checker.violations) == 2
        assert checker.summary()["invariant_violations"] == 2
        assert "rob_gauge" in checker.summary()["invariant_first_violation"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(mode="explode")


class TestWatchdogMode:
    """mode='watchdog' converts violations into ADTS safe-mode fallback."""

    def test_violation_trips_adts_watchdog(self):
        ctrl = ADTSController(
            heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=2.0),
        )
        checker = InvariantChecker(ctrl, mode="watchdog")
        proc = build_processor(mix="mix05", seed=0, hook=checker, quantum_cycles=256)
        proc.run_quanta(1)
        proc.counters[0].rob += 3  # persistent mirror drift
        proc.run_quanta(6)
        wd = ctrl.summary()
        assert len(checker.violations) >= 2
        assert wd["implausible_quanta"] >= 2
        assert wd["fallback_events"] >= 1  # safe-mode ICOUNT engaged
        assert proc.policy_name == "icount"

"""Tests for the fault-injection subsystem and the ADTS watchdog."""

import pytest

from repro.core.adts import SAFE_MODE_QUANTA, SAFE_POLICY, ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.harness.runner import RunConfig, run_adts, run_fixed
from repro.smt.config import SMTConfig
from repro.smt.counters import QuantumSnapshot
from repro.smt.stats import QuantumRecord


def tiny_run(**over):
    base = dict(
        mix=["gzip", "mcf", "swim", "crafty"],
        num_threads=4,
        quantum_cycles=256,
        quanta=8,
        warmup_quanta=1,
        machine=SMTConfig(num_threads=4),
    )
    base.update(over)
    return RunConfig(**base)


def make_snap(tid=0, committed=0, **over):
    fields = {name: 0 for name in QuantumSnapshot.__slots__}
    fields.update(tid=tid, committed=committed)
    fields.update(over)
    return QuantumSnapshot(**fields)


def make_record(index, committed, cycles=256, policy="icount"):
    return QuantumRecord(
        index=index, cycles=cycles,
        committed=committed, policy=policy,
    )


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="counter_stale_rate"):
            FaultPlan(counter_stale_rate=1.5)
        with pytest.raises(ValueError, match="thread_hang_rate"):
            FaultPlan(thread_hang_rate=-0.1)

    def test_any_enabled(self):
        assert not FaultPlan().any_scheduler_enabled
        assert FaultPlan(dt_drop_rate=0.1).any_scheduler_enabled

    def test_from_kinds(self):
        plan = FaultPlan.from_kinds(["counters"], rate=0.3, seed=7)
        assert plan.counter_stale_rate == 0.3
        assert plan.counter_bitflip_rate == 0.3
        assert plan.dt_drop_rate == 0.0
        assert plan.seed == 7

    def test_from_kinds_all(self):
        plan = FaultPlan.from_kinds(["all"], rate=0.2)
        assert plan.counter_stale_rate == 0.2
        assert plan.thread_hang_rate == 0.2
        assert plan.policy_drop_rate == 0.2

    def test_from_kinds_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_kinds(["counters", "cosmic_rays"])

    def test_storm_enables_everything(self):
        plan = FaultPlan.storm(seed=1, rate=0.5)
        assert plan.any_scheduler_enabled
        assert plan.dt_starvation_rate == 0.5


class TestInjectedRuns:
    def test_fault_smoke_run_triggers_watchdog(self):
        """Acceptance: counter corruption + DT drops complete without raising,
        the watchdog falls back at least once, and the summary reports
        injected-fault and fallback counts."""
        plan = FaultPlan.from_kinds(["counters", "dt"], rate=0.5, seed=3)
        r = run_adts(
            tiny_run(quanta=16),
            thresholds=ThresholdConfig(ipc_threshold=99.0),
            fault_plan=plan,
        )
        assert r.ipc > 0
        assert r.scheduler["faults_injected"] > 0
        assert r.scheduler["fallback_events"] >= 1
        assert r.scheduler["implausible_quanta"] >= 1
        assert r.scheduler["safe_mode_quanta"] >= 1
        assert sum(r.scheduler["fault_counts"].values()) == r.scheduler["faults_injected"]
        fallback_logs = [d for d in _decisions(r) if "watchdog fallback" in d]
        assert fallback_logs

    def test_determinism_under_injection(self):
        """Identical seed + identical FaultPlan => byte-identical RunResult."""
        plan = FaultPlan.storm(seed=11, rate=0.4)
        cfg = tiny_run(seed=5, quanta=10)
        a = run_adts(cfg, thresholds=ThresholdConfig(ipc_threshold=99.0), fault_plan=plan)
        b = run_adts(cfg, thresholds=ThresholdConfig(ipc_threshold=99.0), fault_plan=plan)
        assert a.ipc == b.ipc
        assert a.committed == b.committed
        assert a.quantum_ipcs == b.quantum_ipcs
        assert a.scheduler["fault_counts"] == b.scheduler["fault_counts"]

    def test_zero_plan_is_transparent(self):
        """A run with an all-zero plan equals a run with no injector."""
        cfg = tiny_run(seed=2)
        th = ThresholdConfig(ipc_threshold=99.0)
        clean = run_adts(cfg, thresholds=th)
        wrapped = run_adts(cfg, thresholds=th, fault_plan=FaultPlan())
        assert clean.ipc == wrapped.ipc
        assert clean.quantum_ipcs == wrapped.quantum_ipcs
        assert "faults_injected" not in wrapped.scheduler  # injector skipped

    def test_policy_drop_suppresses_all_switches(self):
        plan = FaultPlan(policy_drop_rate=1.0, seed=1)
        r = run_adts(
            tiny_run(quanta=10),
            heuristic="type1",
            thresholds=ThresholdConfig(ipc_threshold=99.0),
            instant_dt=True,
            fault_plan=plan,
        )
        assert r.scheduler["fault_counts"].get("policy_drop", 0) > 0

    def test_spurious_switches_on_fixed_run(self):
        plan = FaultPlan(policy_spurious_rate=1.0, seed=4)
        r = run_fixed(tiny_run(), fault_plan=plan)
        assert r.scheduler["fault_counts"]["policy_spurious"] > 0
        assert r.ipc > 0

    def test_thread_hangs_complete(self):
        plan = FaultPlan(thread_hang_rate=1.0, seed=9)
        r = run_fixed(tiny_run(), fault_plan=plan)
        assert r.scheduler["fault_counts"]["thread_hang"] > 0
        assert r.ipc > 0

    def test_dt_starvation_delays_decisions(self):
        # Each window (DT_STARVATION_CYCLES) outlasts a 256-cycle quantum.
        plan = FaultPlan(dt_starvation_rate=1.0, seed=6)
        r = run_adts(
            tiny_run(quanta=10),
            thresholds=ThresholdConfig(ipc_threshold=99.0),
            fault_plan=plan,
        )
        # The DT never sees an idle slot: every low-throughput boundary
        # after the first either misses or ends in watchdog fallback.
        assert r.scheduler["missed_decisions"] > 0 or r.scheduler["fallback_events"] > 0


def _decisions(result):
    """Watchdog reasons are only visible via the controller's decision log;
    re-run compactly by matching on the scheduler summary instead."""
    # The summary carries counts; for reason text we re-run a tiny controller
    # run here. Kept as a helper so the smoke test reads naturally.
    plan = FaultPlan.from_kinds(["counters", "dt"], rate=0.5, seed=3)
    controller = ADTSController(thresholds=ThresholdConfig(ipc_threshold=99.0))
    injector = FaultInjector(plan, controller)
    from repro import build_processor

    proc = build_processor(
        mix=["gzip", "mcf", "swim", "crafty"],
        config=SMTConfig(num_threads=4),
        hook=injector,
        quantum_cycles=256,
        seed=0,
    )
    proc.run_quanta(17)
    return [d.reason for d in controller.decisions]


class TestWatchdog:
    def _attached(self, quick_proc_builder=None):
        from repro import build_processor

        adts = ADTSController(
            thresholds=ThresholdConfig(ipc_threshold=0.0),  # never low-throughput
        )
        build_processor(
            mix=["gzip", "mcf"], config=SMTConfig(num_threads=2),
            hook=adts, quantum_cycles=256,
        )
        return adts

    def test_plausible_telemetry_accepted(self):
        adts = self._attached()
        snaps = [make_snap(0, 50), make_snap(1, 30)]
        adts.on_quantum_end(256, make_record(0, 80), snaps)
        assert adts.implausible_quanta == 0
        assert not adts.in_safe_mode

    def test_overrange_committed_is_implausible(self):
        adts = self._attached()
        # 256 cycles x 8-wide commit = 2048 max; 1 << 20 is physically
        # impossible and must not reach the heuristics.
        snaps = [make_snap(0, 1 << 20), make_snap(1, 0)]
        adts.on_quantum_end(256, make_record(0, 1 << 20), snaps)
        assert adts.implausible_quanta == 1

    def test_sum_mismatch_is_implausible(self):
        adts = self._attached()
        snaps = [make_snap(0, 10), make_snap(1, 10)]
        adts.on_quantum_end(256, make_record(0, 999), snaps)
        assert adts.implausible_quanta == 1

    def test_negative_counter_is_implausible(self):
        adts = self._attached()
        snaps = [make_snap(0, 40, l1d_misses=-3), make_snap(1, 0)]
        adts.on_quantum_end(256, make_record(0, 40), snaps)
        assert adts.implausible_quanta == 1

    def test_stale_replay_is_implausible(self):
        adts = self._attached()
        snaps = [make_snap(0, 40), make_snap(1, 10)]
        adts.on_quantum_end(256, make_record(0, 50), snaps)
        assert adts.implausible_quanta == 0
        # The same quantum read again: its index is already over.
        adts.on_quantum_end(512, make_record(0, 50), snaps)
        assert adts.implausible_quanta == 1

    def test_consecutive_implausible_triggers_fallback_and_rearms(self):
        adts = self._attached()
        bad = [make_snap(0, 1 << 20), make_snap(1, 0)]
        good = [make_snap(0, 40), make_snap(1, 10)]
        # IMPLAUSIBLE_LIMIT (2) consecutive bad readings trip the fallback.
        adts.on_quantum_end(256, make_record(0, 1 << 20), bad)
        assert adts.fallback_events == 0
        adts.on_quantum_end(512, make_record(1, 1 << 20), bad)
        assert adts.fallback_events == 1
        assert adts.in_safe_mode
        assert adts.processor.policy_name == SAFE_POLICY
        assert any("watchdog fallback" in d.reason for d in adts.decisions)
        # Safe mode holds for SAFE_MODE_QUANTA boundaries, then re-arms.
        end = 2 + SAFE_MODE_QUANTA
        for i in range(2, end):
            adts.on_quantum_end(256 * (i + 1), make_record(i, 50), good)
            assert adts.in_safe_mode
        assert adts.safe_mode_quanta_spent == SAFE_MODE_QUANTA
        adts.on_quantum_end(256 * (end + 1), make_record(end, 50), good)
        assert not adts.in_safe_mode

    def test_isolated_implausible_does_not_trip(self):
        adts = self._attached()
        bad = [make_snap(0, 1 << 20), make_snap(1, 0)]
        good = [make_snap(0, 40), make_snap(1, 10)]
        adts.on_quantum_end(256, make_record(0, 1 << 20), bad)
        adts.on_quantum_end(512, make_record(1, 50), good)
        adts.on_quantum_end(768, make_record(2, 1 << 20), bad)
        assert adts.fallback_events == 0
        assert adts.implausible_quanta == 2


class TestInjectorUnits:
    class _Capture:
        """Inner hook recording what telemetry it was handed."""

        detector = None

        def __init__(self):
            self.records = []
            self.snaps = []

        def attach(self, processor):
            pass

        def on_cycle(self, now, idle_slots):
            return 0

        def on_quantum_end(self, now, record, snapshots):
            self.records.append(record)
            self.snaps.append(snapshots)

    class _Proc:
        num_threads = 2

        def __init__(self):
            self.policies = []
            self.contexts = []

        def set_policy(self, policy):
            self.policies.append(policy)

    def test_stale_replays_previous_boundary(self):
        inner = self._Capture()
        injector = FaultInjector(FaultPlan(counter_stale_rate=1.0, seed=0), inner)
        injector.attach(self._Proc())
        r0, s0 = make_record(0, 10), [make_snap(0, 10)]
        r1, s1 = make_record(1, 20), [make_snap(0, 20)]
        injector.on_quantum_end(256, r0, s0)
        injector.on_quantum_end(512, r1, s1)
        assert inner.records[0] is r0  # nothing to replay yet
        assert inner.records[1] is r0  # stale: previous boundary again
        assert inner.snaps[1] is s0
        assert injector.counts["counter_stale"] == 1

    def test_bitflip_changes_exactly_one_field(self):
        inner = self._Capture()
        injector = FaultInjector(FaultPlan(counter_bitflip_rate=1.0, seed=2), inner)
        injector.attach(self._Proc())
        record = make_record(0, 10)
        snaps = [make_snap(0, 10), make_snap(1, 0)]
        injector.on_quantum_end(256, record, snaps)
        got_record, got_snaps = inner.records[0], inner.snaps[0]
        diffs = 0
        if got_record.committed != record.committed:
            diffs += 1
        for orig, new in zip(snaps, got_snaps):
            diffs += sum(
                1 for f in QuantumSnapshot.__slots__
                if getattr(orig, f) != getattr(new, f)
            )
        assert diffs == 1
        # tid is never a corruption target (it is an address, not a counter).
        assert [s.tid for s in got_snaps] == [0, 1]

    def test_attach_interposes_set_policy(self):
        proc = self._Proc()
        injector = FaultInjector(FaultPlan(policy_drop_rate=1.0, seed=0), self._Capture())
        injector.attach(proc)
        proc.set_policy("brcount")
        assert proc.policies == []  # dropped
        assert injector.counts["policy_drop"] == 1

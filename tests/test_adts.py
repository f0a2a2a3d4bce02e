"""Integration tests for the ADTS controller on the real pipeline."""

import gc
import weakref

import pytest

from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig


def controller(heuristic="type3", ipc_threshold=99.0, **kw):
    """Threshold 99 => every quantum is 'low throughput' (forces activity)."""
    return ADTSController(
        heuristic=heuristic,
        thresholds=ThresholdConfig(ipc_threshold=ipc_threshold),
        **kw,
    )


class TestADTSIntegration:
    def test_low_threshold_never_triggers(self, quick_proc):
        adts = controller(ipc_threshold=0.0)
        proc = quick_proc(hook=adts)
        proc.run_quanta(6)
        assert adts.low_throughput_quanta == 0
        assert adts.num_switches == 0
        assert proc.policy_name == "icount"

    def test_high_threshold_triggers_every_quantum(self, quick_proc):
        adts = controller(ipc_threshold=99.0)
        proc = quick_proc(hook=adts)
        proc.run_quanta(6)
        assert adts.low_throughput_quanta + adts.missed_decisions >= 5

    def test_switches_actually_change_pipeline_policy(self, quick_proc):
        adts = controller(heuristic="type1", ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(4)
        # Type 1 under constant low throughput ping-pongs icount/brcount.
        policies = {q.policy for q in proc.stats.quantum_history}
        assert "brcount" in policies

    def test_decision_log_records_reasons(self, quick_proc):
        adts = controller(ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(4)
        assert adts.decisions
        for log in adts.decisions:
            assert log.low_throughput
            assert log.incumbent
            assert log.reason

    def test_instant_dt_applies_same_quantum(self, quick_proc):
        adts = controller(heuristic="type1", ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(3)
        switched = [d for d in adts.decisions if d.switched]
        assert switched
        assert all(d.applied_at_cycle >= 0 for d in switched)

    def test_real_dt_has_latency(self, quick_proc):
        adts = controller(heuristic="type1", ipc_threshold=99.0)
        proc = quick_proc(hook=adts)
        proc.run_quanta(6)
        applied = [d for d in adts.decisions if d.applied_at_cycle >= 0]
        if applied:  # DT may starve entirely on a saturated machine
            assert adts.detector.instructions_executed > 0

    def test_ledger_counts_match_switches(self, quick_proc):
        adts = controller(ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(8)
        applied = sum(1 for d in adts.decisions if d.applied_at_cycle >= 0)
        assert adts.ledger.num_switches == applied

    def test_benign_probability_in_unit_interval(self, quick_proc):
        adts = controller(ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(8)
        assert 0.0 <= adts.benign_probability <= 1.0

    def test_summary_keys(self, quick_proc):
        adts = controller()
        proc = quick_proc(hook=adts)
        proc.run_quanta(2)
        s = adts.summary()
        for key in ("heuristic", "ipc_threshold", "switches", "benign_probability",
                    "missed_decisions", "dt_instructions", "dt_starved_cycles"):
            assert key in s

    def test_heuristic_instance_accepted(self, quick_proc):
        from repro.core.heuristics.type2 import Type2Heuristic

        adts = ADTSController(heuristic=Type2Heuristic())
        proc = quick_proc(hook=adts)
        proc.run_quanta(2)
        assert adts.heuristic.name == "type2"

    def test_type4_outcome_feedback_wired(self, quick_proc):
        adts = controller(heuristic="type4", ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(10)
        if adts.num_switches >= 2:
            entries = adts.heuristic.history._entries
            judged = sum(e.poscnt + e.negcnt for e in entries.values())
            assert judged >= 1

    def test_clogging_marks_written_to_flags(self, quick_proc):
        adts = controller(ipc_threshold=99.0, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(8)
        marks = adts.flags.marked_for_suspension()
        assert isinstance(marks, list)  # may be empty on balanced mixes
        assert set(marks) <= {0, 1, 2, 3}

    def test_busy_dt_skips_decisions(self, quick_proc):
        from repro.core.detector import DetectorTask, DetectorThread

        # Preload the DT with a backlog longer than several quanta: the
        # boundary decisions that arrive while it is busy must be skipped.
        dt = DetectorThread(width=1)
        dt.enqueue(DetectorTask("preload", 100_000), now=0)
        adts = ADTSController(
            heuristic="type3",
            thresholds=ThresholdConfig(ipc_threshold=99.0),
            detector=dt,
        )
        proc = quick_proc(hook=adts)
        proc.run_quanta(4)
        assert adts.missed_decisions > 0
        assert adts.num_switches == 0


class TestMachineLifetime:
    def test_run_adts_frees_its_machine_by_refcount(self, monkeypatch):
        """The controller and the processor reference each other while the
        run lasts; once the result is measured no full collection is needed
        to free the machine, as with ``run_fixed``."""
        from repro.harness import runner

        built = []
        build = runner.build_processor

        def tracked(*args, **kw):
            proc = build(*args, **kw)
            built.append(weakref.ref(proc))
            return proc

        monkeypatch.setattr(runner, "build_processor", tracked)
        cfg = runner.RunConfig(mix="mix05", num_threads=4, quanta=2,
                               warmup_quanta=0, quantum_cycles=256)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            runner.run_adts(cfg)
            (proc,) = built
            assert proc() is None
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("run", [
        "adts-dt-faults", "adts-invariants", "fixed-invariants", "fixed-counter-faults",
    ])
    def test_wrapped_runs_free_their_machine_by_refcount(self, run):
        """A fault injector or invariant checker wrapped around the
        controller (or around nothing, for a fixed run) holds the machine
        too: the run detaches the whole hook chain, so no machine outlives
        it without a full collection."""
        from repro.faults.plan import FaultPlan
        from repro.harness import runner
        from repro.smt.pipeline import SMTProcessor

        cfg = runner.RunConfig(mix="mix05", num_threads=4, seed=1, quanta=2,
                               warmup_quanta=0, quantum_cycles=256)
        call = {
            "adts-dt-faults": lambda: runner.run_adts(
                cfg, fault_plan=FaultPlan(seed=3, dt_drop_rate=0.5)),
            "adts-invariants": lambda: runner.run_adts(cfg, invariants="raise"),
            "fixed-invariants": lambda: runner.run_fixed(cfg, invariants="raise"),
            "fixed-counter-faults": lambda: runner.run_fixed(
                cfg, fault_plan=FaultPlan(seed=3, counter_bitflip_rate=0.5)),
        }[run]

        def live():
            return sum(type(o) is SMTProcessor for o in gc.get_objects())

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = live()
            call()
            assert live() - before == 0
        finally:
            if was_enabled:
                gc.enable()

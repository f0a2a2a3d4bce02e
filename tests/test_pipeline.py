"""Integration tests for the SMT pipeline."""

import gc

import pytest

from conftest import assert_counter_consistency
from repro import build_processor
from repro.smt.config import SMTConfig
from repro.smt.pipeline import SchedulerHook, SMTProcessor
from repro.workloads.tracegen import make_generators


class TestConstruction:
    def test_too_many_traces_rejected(self, small_config):
        traces = make_generators(["gzip"] * 5)
        with pytest.raises(ValueError):
            SMTProcessor(small_config, traces)

    def test_bad_quantum_rejected(self, small_config):
        traces = make_generators(["gzip"])
        with pytest.raises(ValueError):
            SMTProcessor(small_config, traces, quantum_cycles=0)

    def test_policy_by_name_or_instance(self, small_config):
        from repro.policies.icount import ICountPolicy

        traces = make_generators(["gzip", "mcf"])
        p1 = SMTProcessor(small_config, traces, policy="brcount")
        assert p1.policy_name == "brcount"
        traces = make_generators(["gzip", "mcf"])
        p2 = SMTProcessor(small_config, traces, policy=ICountPolicy())
        assert p2.policy_name == "icount"


class TestBasicExecution:
    def test_single_thread_commits(self, small_config):
        proc = SMTProcessor(small_config, make_generators(["gzip"]), quantum_cycles=512)
        proc.run(2000)
        assert proc.stats.committed > 200
        assert 0 < proc.stats.ipc < 8

    def test_multithread_beats_single_thread(self, quick_proc, small_config):
        single = SMTProcessor(small_config, make_generators(["gzip"]), quantum_cycles=512)
        single.run(3000)
        multi = quick_proc()
        multi.run(3000)
        assert multi.stats.ipc > single.stats.ipc

    def test_all_threads_make_progress(self, quick_proc):
        proc = quick_proc()
        proc.run(4000)
        for t in range(4):
            assert proc.stats.per_thread_committed.get(t, 0) > 0, f"thread {t} starved"

    def test_deterministic_given_seed(self, quick_proc):
        a = quick_proc(seed=3)
        b = quick_proc(seed=3)
        a.run(2000)
        b.run(2000)
        assert a.stats.committed == b.stats.committed
        assert a.stats.fetched == b.stats.fetched

    def test_different_seeds_differ(self, quick_proc):
        a = quick_proc(seed=1)
        b = quick_proc(seed=2)
        a.run(2000)
        b.run(2000)
        assert a.stats.committed != b.stats.committed

    def test_cycles_tracked(self, quick_proc):
        proc = quick_proc()
        proc.run(123)
        assert proc.now == 123
        assert proc.stats.cycles == 123

    def test_run_quanta(self, quick_proc):
        proc = quick_proc()
        proc.run_quanta(3)
        assert proc.now == 3 * 512
        assert len(proc.stats.quantum_history) == 3


class TestCounterConsistency:
    def test_occupancy_counters_match_structures(self, quick_proc):
        proc = quick_proc()
        for _ in range(20):
            proc.run(100)
            assert_counter_consistency(proc)

    def test_consistency_under_each_policy(self, quick_proc):
        for policy in ("icount", "brcount", "l1misscount", "rr", "accipc"):
            proc = quick_proc(policy=policy)
            proc.run(1500)
            assert_counter_consistency(proc)


class TestBranchHandling:
    def test_mispredictions_occur_and_squash(self, quick_proc):
        proc = quick_proc()
        proc.run(4000)
        assert proc.stats.mispredicted_branches > 0
        assert proc.stats.squashed > 0
        assert proc.stats.wrong_path_fetched > 0

    def test_mispredict_rate_sane(self, quick_proc):
        proc = quick_proc()
        proc.run(6000)
        assert 0.0 < proc.stats.mispredict_rate < 0.35

    def test_wrong_path_mode_clears(self, quick_proc):
        proc = quick_proc()
        proc.run(5000)
        # No thread should be stuck permanently on the wrong path.
        stuck = [c.tid for c in proc.contexts if c.wrong_path]
        proc.run(1500)
        still = [c.tid for c in proc.contexts if c.wrong_path and c.tid in stuck]
        assert not still

    def test_btb_trains(self, quick_proc, monkeypatch):
        from repro.branch.btb import BranchTargetBuffer

        targets = []
        lookup = BranchTargetBuffer.lookup

        def recording(self, pc):
            targets.append(lookup(self, pc))
            return targets[-1]

        monkeypatch.setattr(BranchTargetBuffer, "lookup", recording)
        proc = quick_proc()
        proc.run(4000)
        assert sum(t != -1 for t in targets) / len(targets) > 0.3


class TestQuantumBoundaries:
    def test_quantum_records_partition_committed(self, quick_proc):
        proc = quick_proc()
        proc.run_quanta(4)
        total = sum(q.committed for q in proc.stats.quantum_history)
        assert total == proc.stats.committed

    def test_quantum_records_carry_policy(self, quick_proc):
        proc = quick_proc(policy="brcount")
        proc.run_quanta(2)
        assert all(q.policy == "brcount" for q in proc.stats.quantum_history)

    def test_hook_receives_quantum_events(self, quick_proc):
        events = []

        class Recorder(SchedulerHook):
            def on_quantum_end(self, now, record, snapshots):
                events.append((now, record.index, len(snapshots)))

        proc = quick_proc(hook=Recorder())
        proc.run_quanta(3)
        assert [e[1] for e in events] == [0, 1, 2]
        assert all(e[2] == 4 for e in events)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_gc_state_when_hook_raises(self, quick_proc, enabled):
        """run() pauses the collector around its cycle loop; a hook that
        raises at a quantum boundary leaves the caller's GC state as found."""

        class Boom(Exception):
            pass

        class Raiser(SchedulerHook):
            def on_quantum_end(self, now, record, snapshots):
                raise Boom

        proc = quick_proc(hook=Raiser())
        was_enabled = gc.isenabled()
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            with pytest.raises(Boom):
                proc.run_quanta(2)
            assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()

    def test_hook_on_cycle_sees_idle_slots(self, quick_proc):
        seen = []

        class Recorder(SchedulerHook):
            def on_cycle(self, now, idle_slots):
                seen.append(idle_slots)
                return 0

        proc = quick_proc(hook=Recorder())
        proc.run(200)
        assert len(seen) == 200
        assert all(0 <= s <= 8 for s in seen)

    def test_hook_consumed_slots_accounted(self, quick_proc):
        class Eater(SchedulerHook):
            offered = consumed = 0

            def on_cycle(self, now, idle_slots):
                took = min(idle_slots, 2)
                self.offered += idle_slots
                self.consumed += took
                return took

        eater = Eater()
        proc = quick_proc(hook=eater)
        proc.run(500)
        assert eater.consumed > 0
        # Slots the hook consumed are no longer idle.
        assert proc.stats.idle_fetch_slots == eater.offered - eater.consumed


class TestPolicySwitching:
    def test_set_policy_mid_run(self, quick_proc):
        proc = quick_proc()
        proc.run(500)
        proc.set_policy("brcount")
        proc.run(500)
        assert proc.policy_name == "brcount"

    def test_policies_change_behaviour(self, quick_proc):
        results = {}
        for policy in ("icount", "rr"):
            proc = quick_proc(policy=policy)
            proc.run(6000)
            results[policy] = proc.stats.ipc
        assert results["icount"] != results["rr"]


class TestFetchMechanics:
    def test_idle_slots_bounded(self, quick_proc):
        proc = quick_proc()
        proc.run(1000)
        assert proc.stats.idle_fetch_slots <= 1000 * 8

    def test_fetch_buffer_capacity_respected(self, quick_proc, small_config):
        proc = quick_proc()
        for _ in range(50):
            proc.run(20)
            total = sum(len(q) for q in proc.front_q)
            assert total <= small_config.fetch_buffer_entries

    def test_fetchable_flag_stops_thread(self, quick_proc):
        proc = quick_proc()
        proc.contexts[0].fetchable = False
        proc.run(2000)
        assert proc.stats.per_thread_committed.get(0, 0) == 0
        assert proc.stats.per_thread_committed.get(1, 0) > 0

    def test_suspension_stops_thread(self, quick_proc):
        proc = quick_proc()
        proc.run(1000)
        before = proc.stats.per_thread_committed.get(2, 0)
        proc.contexts[2].suspended = True
        proc.run(1500)
        after = proc.stats.per_thread_committed.get(2, 0)
        # Only in-flight instructions may still drain.
        assert after - before < 100

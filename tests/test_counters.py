"""Tests for the per-thread hardware status counters."""

import pytest

from repro.smt.counters import DECAY, CounterBank, ThreadCounters


class TestThreadCounters:
    def test_initial_state_zero(self):
        t = ThreadCounters(3)
        assert t.tid == 3
        assert t.icount == 0
        assert t.q_fetched == 0
        assert t.accumulated_ipc == 0.0

    def test_icount_sums_front_and_queues(self):
        t = ThreadCounters(0)
        t.front_end = 3
        t.iq_int = 5
        t.iq_fp = 2
        assert t.icount == 10

    def test_accumulated_ipc(self):
        t = ThreadCounters(0)
        t.total_committed = 50
        t.active_cycles = 100
        assert t.accumulated_ipc == pytest.approx(0.5)

    def test_decay_shrinks_windowed_signals(self):
        """The windowed signals decay through the bank's per-cycle tick,
        the one copy of the rule the pipeline runs."""
        bank = CounterBank(1)
        t = bank[0]
        t.recent_l1i_misses = 10.0
        t.recent_stalls = 4.0
        bank.tick_all()
        assert t.recent_l1i_misses == 10.0 * DECAY
        assert t.recent_stalls == 4.0 * DECAY
        assert t.active_cycles == 1

    def test_end_quantum_snapshots_and_clears(self):
        t = ThreadCounters(1)
        t.q_fetched = 100
        t.q_committed = 80
        t.q_l1d_misses = 7
        t.q_l1i_misses = 3
        t.q_loads = 20
        t.q_stores = 5
        snap = t.end_quantum()
        assert snap.tid == 1
        assert snap.fetched == 100
        assert snap.committed == 80
        assert snap.l1_misses == 10
        assert (snap.loads, snap.stores) == (20, 5)
        # All quantum counters reset.
        assert t.q_fetched == 0 and t.q_committed == 0 and t.q_l1d_misses == 0

    def test_end_quantum_preserves_live_state(self):
        t = ThreadCounters(0)
        t.front_end = 4
        t.total_committed = 99
        t.end_quantum()
        assert t.front_end == 4
        assert t.total_committed == 99

    def test_snapshot_as_dict(self):
        t = ThreadCounters(0)
        t.q_mispredicts = 2
        d = t.end_quantum().as_dict()
        assert d["mispredicts"] == 2
        assert "stall_cycles" in d


class TestCounterBank:
    def test_indexing_and_len(self):
        bank = CounterBank(4)
        assert len(bank) == 4
        assert bank[2].tid == 2
        assert [t.tid for t in bank] == [0, 1, 2, 3]

    def test_decay_all(self):
        bank = CounterBank(2)
        for t in bank:
            t.recent_stalls = 8.0
        bank.tick_all()
        assert all(t.recent_stalls == 8.0 * DECAY for t in bank)
        assert all(t.recent_l1i_misses == 0.0 for t in bank)

    def test_end_quantum_returns_all_snapshots(self):
        bank = CounterBank(3)
        bank[1].q_committed = 5
        snaps = bank.end_quantum()
        assert [s.tid for s in snaps] == [0, 1, 2]
        assert snaps[1].committed == 5

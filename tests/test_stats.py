"""Tests for simulation statistics."""

import pytest

from repro.smt.stats import QuantumRecord, SimStats


class TestQuantumRecord:
    def test_ipc(self):
        q = QuantumRecord(index=0, cycles=100, committed=250, policy="icount")
        assert q.ipc == pytest.approx(2.5)

    def test_zero_cycles(self):
        q = QuantumRecord(index=0, cycles=0, committed=0, policy="icount")
        assert q.ipc == 0.0


class TestSimStats:
    def test_fresh_stats_are_zero(self):
        s = SimStats()
        assert s.ipc == 0.0
        assert s.mispredict_rate == 0.0
        assert s.wrong_path_fraction == 0.0
        assert s.fetch_utilization == 0.0

    def test_derived_rates(self):
        s = SimStats(
            cycles=1000, committed=2000, fetched=3000, wrong_path_fetched=600,
            mispredicted_branches=30, cond_branches=300, idle_fetch_slots=5000,
        )
        assert s.ipc == pytest.approx(2.0)
        assert s.mispredict_rate == pytest.approx(0.1)
        assert s.wrong_path_fraction == pytest.approx(0.2)
        assert s.fetch_utilization == pytest.approx((3000 - 600) / 8000)

    def test_summary_keys(self):
        s = SimStats(cycles=10, committed=5)
        summary = s.summary()
        for key in ("cycles", "committed", "ipc", "mispredict_rate",
                    "wrong_path_fraction", "fetch_utilization", "syscalls"):
            assert key in summary

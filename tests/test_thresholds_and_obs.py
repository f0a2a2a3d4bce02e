"""Tests for threshold configuration and quantum observations."""

import pytest

from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig
from repro.smt.counters import QuantumSnapshot
from repro.smt.stats import QuantumRecord


def snapshot(tid=0, **over):
    base = dict(
        tid=tid, fetched=1000, committed=800, cond_branches=150, branches=180,
        mispredicts=10, loads=200, stores=80, l1d_misses=30, l1i_misses=10,
        l2_misses=5, lsq_full=20, iq_full=5, reg_full=0, squashed=50,
        stall_cycles=100,
    )
    base.update(over)
    return QuantumSnapshot(**base)


def record(cycles=1000, committed=1500, index=0):
    return QuantumRecord(index=index, cycles=cycles,
                         committed=committed, policy="icount")


class TestThresholdConfig:
    def test_defaults_positive(self):
        t = ThresholdConfig()
        assert t.ipc_threshold > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThresholdConfig(ipc_threshold=-1)
        with pytest.raises(ValueError):
            ThresholdConfig(l1_miss_rate=-0.1)

    def test_paper_values_recorded(self):
        assert ThresholdConfig.PAPER_VALUES["l1_miss_rate"] == 0.19
        assert ThresholdConfig.PAPER_VALUES["cond_branch_rate"] == 0.38


class TestQuantumObservation:
    def test_from_snapshots_aggregates(self):
        obs = QuantumObservation.from_snapshots(
            record(cycles=1000, committed=2000),
            [snapshot(0), snapshot(1)],
            prev_ipc=1.5,
        )
        assert obs.ipc == pytest.approx(2.0)
        assert obs.l1_miss_rate == pytest.approx(2 * 40 / 1000)
        assert obs.lsq_full_rate == pytest.approx(2 * 20 / 1000)
        assert obs.mispredict_rate == pytest.approx(2 * 10 / 1000)
        assert obs.cond_branch_rate == pytest.approx(2 * 150 / 1000)
        assert obs.prev_ipc == 1.5
        assert obs.gradient == pytest.approx(0.5)

    def test_low_throughput(self):
        obs = QuantumObservation.from_snapshots(record(committed=1500), [snapshot()])
        assert obs.low_throughput(ThresholdConfig(ipc_threshold=2.0))
        assert not obs.low_throughput(ThresholdConfig(ipc_threshold=1.0))

    def test_cond_mem_via_l1(self):
        t = ThresholdConfig(l1_miss_rate=0.05, lsq_full_rate=100.0)
        obs = QuantumObservation.from_snapshots(record(), [snapshot(l1d_misses=100)])
        assert obs.cond_mem(t)

    def test_cond_mem_via_lsq(self):
        t = ThresholdConfig(l1_miss_rate=100.0, lsq_full_rate=0.01)
        obs = QuantumObservation.from_snapshots(record(), [snapshot()])
        assert obs.cond_mem(t)

    def test_cond_mem_false_when_both_low(self):
        t = ThresholdConfig(l1_miss_rate=100.0, lsq_full_rate=100.0)
        obs = QuantumObservation.from_snapshots(record(), [snapshot()])
        assert not obs.cond_mem(t)

    def test_cond_br_via_mispredicts(self):
        t = ThresholdConfig(mispredict_rate=0.005, cond_branch_rate=100.0)
        obs = QuantumObservation.from_snapshots(record(), [snapshot()])
        assert obs.cond_br(t)

    def test_cond_br_via_branch_density(self):
        t = ThresholdConfig(mispredict_rate=100.0, cond_branch_rate=0.1)
        obs = QuantumObservation.from_snapshots(record(), [snapshot()])
        assert obs.cond_br(t)

    def test_zero_cycle_guard(self):
        obs = QuantumObservation.from_snapshots(record(cycles=0, committed=0), [snapshot()])
        assert obs.cycles == 1  # clamped

"""Tests for the fairness metrics."""

import pytest

from repro.analysis.fairness import fairness_report, jain_index
from repro.smt.stats import SimStats


class TestJainIndex:
    def test_equal_shares_give_one(self):
        assert jain_index({0: 1.0, 1: 1.0, 2: 1.0}) == pytest.approx(1.0)

    def test_total_starvation_gives_one_over_n(self):
        assert jain_index({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}) == pytest.approx(0.25)

    def test_empty_is_zero(self):
        assert jain_index({}) == 0.0
        assert jain_index({0: 0.0}) == 0.0

    def test_bounded(self):
        v = jain_index({0: 0.3, 1: 0.5, 2: 0.1})
        assert 1 / 3 <= v <= 1.0


class TestFairnessReport:
    def test_from_stats_without_baselines(self):
        stats = SimStats(cycles=100, committed=150,
                         per_thread_committed={0: 100, 1: 50})
        # Per-thread IPCs 1.0 and 0.5: (1.5 ** 2) / (2 * 1.25) = 0.9.
        assert fairness_report(stats) == pytest.approx(0.9)

    def test_integration_with_real_run(self, quick_proc):
        proc = quick_proc()
        proc.run(3000)
        assert 0.0 < fairness_report(proc.stats) <= 1.0

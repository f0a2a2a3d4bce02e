"""Unit tests for the branch-prediction substrate."""

import numpy as np
import pytest

from repro.branch.base import TwoBitCounterTable
from repro.branch.bimodal import BimodalPredictor
from repro.branch.btb import BranchTargetBuffer


class TestTwoBitCounterTable:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TwoBitCounterTable(0)
        with pytest.raises(ValueError):
            TwoBitCounterTable(100)  # not a power of two

    def test_initial_state_weakly_taken(self):
        t = TwoBitCounterTable(16)
        assert t.predict(3)
        assert t.counter(3) == 2

    def test_saturates_at_three(self):
        t = TwoBitCounterTable(16)
        for _ in range(10):
            t.update(0, True)
        assert t.counter(0) == 3

    def test_saturates_at_zero(self):
        t = TwoBitCounterTable(16)
        for _ in range(10):
            t.update(0, False)
        assert t.counter(0) == 0
        assert not t.predict(0)

    def test_hysteresis_needs_two_flips(self):
        t = TwoBitCounterTable(16)
        for _ in range(4):
            t.update(0, True)  # strongly taken
        t.update(0, False)
        assert t.predict(0)  # still predicts taken after one not-taken
        t.update(0, False)
        assert not t.predict(0)

    def test_index_wraps(self):
        t = TwoBitCounterTable(16)
        t.update(16, False)
        t.update(16, False)
        assert not t.predict(0)

    def test_reset(self):
        t = TwoBitCounterTable(16)
        t.update(1, False)
        t.update(1, False)
        t.reset()
        assert t.counter(1) == 2


class TestBimodal:
    def test_learns_strongly_biased_branch(self):
        p = BimodalPredictor(256)
        for _ in range(50):
            p.predict_and_update(0, 0x400, True)
        assert p.predict(0, 0x400)
        assert p.accuracy > 0.9

    def test_learns_not_taken(self):
        p = BimodalPredictor(256)
        for _ in range(50):
            p.predict_and_update(0, 0x400, False)
        assert not p.predict(0, 0x400)

    def test_distinct_pcs_independent(self):
        p = BimodalPredictor(256)
        for _ in range(10):
            p.predict_and_update(0, 0x400, True)
            p.predict_and_update(0, 0x404, False)
        assert p.predict(0, 0x400)
        assert not p.predict(0, 0x404)

    def test_shared_table_aliasing_across_threads(self):
        # Same PC from two threads trains the same counters (SMT sharing).
        p = BimodalPredictor(256)
        for _ in range(10):
            p.predict_and_update(0, 0x800, False)
        assert not p.predict(1, 0x800)

    def test_accuracy_on_noisy_stream(self):
        rng = np.random.default_rng(7)
        p = BimodalPredictor(1024)
        correct = 0
        n = 2000
        for _ in range(n):
            taken = bool(rng.random() < 0.92)
            correct += p.predict_and_update(0, 0x400, taken)
        # Expected ~ 1 - 2*p*(1-p) for a saturating counter on Bernoulli.
        assert correct / n > 0.82

    def test_reset(self):
        p = BimodalPredictor(256)
        p.predict_and_update(0, 0x1, True)
        p.reset()
        assert p.lookups == 0 and p.correct == 0


class TestBTB:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(0)
        with pytest.raises(ValueError):
            BranchTargetBuffer(100)

    def test_miss_then_hit(self):
        b = BranchTargetBuffer(64)
        assert b.lookup(0x100) == -1
        b.update(0x100, 0x2000)
        assert b.lookup(0x100) == 0x2000
        assert b.hits == 1 and b.misses == 1

    def test_tag_conflict_evicts(self):
        b = BranchTargetBuffer(64)
        conflicting = 0x100 + 64 * 4  # same index, different tag
        b.update(0x100, 0x2000)
        b.update(conflicting, 0x3000)
        assert b.lookup(0x100) == -1

    def test_target_update(self):
        b = BranchTargetBuffer(64)
        b.update(0x100, 0x2000)
        b.update(0x100, 0x9000)
        assert b.lookup(0x100) == 0x9000

    def test_hit_rate_and_reset(self):
        b = BranchTargetBuffer(64)
        b.lookup(0x100)
        b.update(0x100, 1)
        b.lookup(0x100)
        assert b.hit_rate == pytest.approx(0.5)
        b.reset()
        assert b.hit_rate == 1.0  # vacuous

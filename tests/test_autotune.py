"""Tests for threshold auto-tuning (§4.3.2's update-kernel extension)."""

import numpy as np
import pytest

from repro.core.autotune import QuantileTracker, RunningMean, ThresholdAutoTuner
from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig


def obs(index, ipc, l1=0.1, lsq=1.0, mis=0.02, cbr=0.3):
    return QuantumObservation(
        index=index, cycles=1000, ipc=ipc, prev_ipc=0.0,
        l1_miss_rate=l1, lsq_full_rate=lsq, mispredict_rate=mis, cond_branch_rate=cbr,
    )


class TestQuantileTracker:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            QuantileTracker(0.0)
        with pytest.raises(ValueError):
            QuantileTracker(1.0)

    def test_converges_to_median(self):
        rng = np.random.default_rng(0)
        t = QuantileTracker(0.5, initial=0.0)
        for _ in range(4000):
            t.update(rng.normal(10.0, 2.0))
        assert t.estimate == pytest.approx(10.0, abs=1.0)

    def test_low_quantile_below_high_quantile(self):
        rng = np.random.default_rng(1)
        lo, hi = QuantileTracker(0.2, 5.0), QuantileTracker(0.8, 5.0)
        for _ in range(4000):
            x = rng.normal(10.0, 3.0)
            lo.update(x)
            hi.update(x)
        assert lo.estimate < hi.estimate


class TestRunningMean:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            RunningMean(0.0)

    def test_first_sample_adopted(self):
        m = RunningMean(0.1)
        m.update(7.0)
        assert m.value == 7.0

    def test_tracks_mean(self):
        m = RunningMean(0.2)
        for _ in range(200):
            m.update(3.0)
        assert m.value == pytest.approx(3.0)

    def test_adapts_to_shift(self):
        m = RunningMean(0.3, initial=0.0)
        m.update(0.0)
        for _ in range(50):
            m.update(10.0)
        assert m.value > 9.0


class TestThresholdAutoTuner:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ThresholdAutoTuner(update_interval=0)

    def test_no_update_before_interval(self):
        t = ThresholdAutoTuner(update_interval=8)
        initial = t.thresholds
        for i in range(7):
            t.observe(obs(i, ipc=1.0))
        assert t.thresholds is initial
        assert len(t.events) == 0

    def test_updates_at_interval(self):
        t = ThresholdAutoTuner(update_interval=4)
        for i in range(4):
            t.observe(obs(i, ipc=1.0))
        assert len(t.events) == 1

    def test_ipc_threshold_tracks_low_quantile(self):
        t = ThresholdAutoTuner(
            initial=ThresholdConfig(ipc_threshold=2.0),
            ipc_quantile=0.3, update_interval=4,
        )
        # Feed a workload running around IPC 6: the threshold must rise
        # well above the stale value of 2 (so "low" means low *here*).
        rng = np.random.default_rng(2)
        for i in range(400):
            t.observe(obs(i, ipc=float(rng.normal(6.0, 0.5))))
        assert t.thresholds.ipc_threshold > 4.0
        assert t.thresholds.ipc_threshold < 6.5

    def test_condition_constants_track_means(self):
        t = ThresholdAutoTuner(update_interval=4)
        for i in range(40):
            t.observe(obs(i, ipc=2.0, l1=0.4, mis=0.08))
        assert t.thresholds.l1_miss_rate == pytest.approx(0.4, rel=0.1)
        assert t.thresholds.mispredict_rate == pytest.approx(0.08, rel=0.1)

    def test_integration_with_adts(self, quick_proc):
        from repro.core.adts import ADTSController

        tuner = ThresholdAutoTuner(update_interval=2)
        adts = ADTSController(heuristic="type3", autotune=tuner, instant_dt=True)
        proc = quick_proc(hook=adts)
        proc.run_quanta(8)
        assert len(tuner.events) >= 3
        # The controller and heuristic follow the tuned thresholds.
        assert adts.thresholds is tuner.thresholds
        assert adts.heuristic.thresholds is tuner.thresholds


class TestInhibitCloggers:
    def test_inhibition_lifts_next_quantum(self, quick_proc):
        from repro.core.adts import ADTSController
        from repro.core.thresholds import ThresholdConfig

        adts = ADTSController(
            heuristic="type3",
            thresholds=ThresholdConfig(ipc_threshold=99.0),
            instant_dt=True,
            inhibit_cloggers=True,
        )
        proc = quick_proc(hook=adts)
        proc.run_quanta(10)
        # At rest (after a boundary) no thread is left permanently inhibited.
        assert all(ctx.fetchable or ctx.tid in adts._inhibited for ctx in proc.contexts)
        proc.run_quanta(1)
        # And the machine still commits work.
        assert proc.stats.committed > 0

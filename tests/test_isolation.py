"""Isolation and regression-band tests.

Two properties a simulation library must not lose: (1) simulator instances
share no hidden global state — interleaving two machines' cycle loops gives
exactly the results of running each alone; (2) the calibrated operating
point stays inside a coarse band (catches accidental order-of-magnitude
behaviour changes without pinning exact values).
"""

import pytest

from repro import build_processor


class TestInstanceIsolation:
    def test_interleaved_processors_match_solo_runs(self):
        solo_a = build_processor(mix="mix09", seed=3, quantum_cycles=512)
        solo_a.run(2000)
        solo_b = build_processor(mix="mix10", seed=4, quantum_cycles=512)
        solo_b.run(2000)

        inter_a = build_processor(mix="mix09", seed=3, quantum_cycles=512)
        inter_b = build_processor(mix="mix10", seed=4, quantum_cycles=512)
        for _ in range(200):
            inter_a.run(10)
            inter_b.run(10)

        assert inter_a.stats.committed == solo_a.stats.committed
        assert inter_b.stats.committed == solo_b.stats.committed
        assert inter_a.stats.mispredicted_branches == solo_a.stats.mispredicted_branches

    def test_two_identical_processors_stay_identical(self):
        a = build_processor(mix="mix05", seed=7, quantum_cycles=512)
        b = build_processor(mix="mix05", seed=7, quantum_cycles=512)
        for _ in range(50):
            a.run(37)
            b.run(37)
            assert a.stats.committed == b.stats.committed
            assert a.now == b.now


class TestOperatingBands:
    """Coarse bands around the calibrated operating point (EXPERIMENTS.md).

    Wide on purpose: they should only trip on accidental regressions
    (deadlocks, runaway wrong-path, broken caches), not on retuning.
    """

    def run_mix(self, mix, quanta=10):
        proc = build_processor(mix=mix, seed=0, quantum_cycles=2048)
        proc.run_quanta(quanta)
        return proc

    def test_balanced_mix_band(self):
        proc = self.run_mix("mix05")
        assert 1.0 < proc.stats.ipc < 4.0
        assert proc.stats.mispredict_rate < 0.20
        assert proc.stats.wrong_path_fraction < 0.50

    def test_memory_mix_band(self):
        proc = self.run_mix("mix10")
        assert 0.2 < proc.stats.ipc < 2.5

    def test_homogeneous_cpu_mix_band(self):
        proc = self.run_mix("mix09")
        assert 1.5 < proc.stats.ipc < 5.0

    def test_predictor_accuracy_band(self, monkeypatch):
        from repro.branch.bimodal import BimodalPredictor

        outcomes = []
        predict_and_update = BimodalPredictor.predict_and_update

        def recording(self, tid, pc, taken):
            outcomes.append(predict_and_update(self, tid, pc, taken))
            return outcomes[-1]

        monkeypatch.setattr(BimodalPredictor, "predict_and_update", recording)
        self.run_mix("mix05")
        assert sum(outcomes) / len(outcomes) > 0.80

    def test_cache_behaviour_band(self):
        proc = self.run_mix("mix05")
        assert proc.hierarchy.l1d.miss_rate < 0.5
        assert proc.hierarchy.l1i.miss_rate < 0.3

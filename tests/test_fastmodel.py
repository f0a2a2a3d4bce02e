"""Tests for the fast quantum-level model."""

import numpy as np
import pytest

from repro.core.thresholds import ThresholdConfig
from repro.fastmodel.calibrate import DEFAULT_CONSTANTS
from repro.fastmodel.model import FastMixModel, fast_run_adts, fast_run_fixed
from repro.workloads.mixes import mix_names

QUANTA = 48


class TestFastMixModel:
    def test_quantum_advances_index(self):
        m = FastMixModel("mix01", seed=0)
        m.run_quantum("icount")
        m.run_quantum("icount")
        assert m.quantum_index == 2

    def test_ipc_positive_and_bounded(self):
        m = FastMixModel("mix05", seed=0)
        for _ in range(30):
            ipc, obs = m.run_quantum("icount")
            assert 0.0 < ipc < 8.0
            assert obs.l1_miss_rate >= 0
            assert obs.cond_branch_rate >= 0

    def test_deterministic(self):
        a = [FastMixModel("mix05", seed=3).run_quantum("icount")[0] for _ in range(1)]
        m1 = FastMixModel("mix05", seed=3)
        m2 = FastMixModel("mix05", seed=3)
        s1 = [m1.run_quantum("icount")[0] for _ in range(20)]
        s2 = [m2.run_quantum("icount")[0] for _ in range(20)]
        assert s1 == s2

    def test_explicit_app_list_accepted(self):
        m = FastMixModel(["gzip", "mcf"], seed=0)
        ipc, _ = m.run_quantum("icount")
        assert ipc > 0

    def test_memory_mix_slower_than_cpu_mix(self):
        mem = fast_run_fixed("mix10", "icount", quanta=QUANTA).ipc
        cpu = fast_run_fixed("mix09", "icount", quanta=QUANTA).ipc
        assert cpu > mem

    def test_phase_chains_evolve(self):
        m = FastMixModel("mix02", seed=1)  # branchy profiles with phases
        names = set()
        for _ in range(300):
            m.run_quantum("icount")
            names.update(t.phase.name for t in m.threads)
        assert len(names) > 1


class TestFixedPolicyShapes:
    def test_icount_best_fixed_on_average(self):
        mixes = mix_names()
        means = {
            p: float(np.mean([fast_run_fixed(m, p, quanta=QUANTA).ipc for m in mixes]))
            for p in ("icount", "brcount", "l1misscount", "rr")
        }
        assert means["icount"] == max(means.values())
        assert means["rr"] == min(means.values())

    def test_all_table1_policies_runnable(self):
        from repro.policies.registry import POLICY_NAMES

        for p in POLICY_NAMES:
            assert fast_run_fixed("mix05", p, quanta=8).ipc > 0


class TestFastADTS:
    def test_switches_happen_under_high_threshold(self):
        r = fast_run_adts("mix05", "type3", ThresholdConfig(ipc_threshold=5.0), quanta=QUANTA)
        assert r.switches > 0
        assert sum(r.policy_usage.values()) == QUANTA

    def test_no_switches_under_zero_threshold(self):
        r = fast_run_adts("mix05", "type3", ThresholdConfig(ipc_threshold=0.0), quanta=QUANTA)
        assert r.switches == 0
        assert r.policy_usage == {"icount": QUANTA}

    def test_switch_count_monotone_in_threshold(self):
        counts = []
        for m in (1.0, 3.0, 5.0):
            total = sum(
                fast_run_adts(mix, "type3", ThresholdConfig(ipc_threshold=m), quanta=QUANTA).switches
                for mix in ("mix02", "mix05", "mix10")
            )
            counts.append(total)
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0]

    def test_benign_probability_bounds(self):
        r = fast_run_adts("mix05", "type1", ThresholdConfig(ipc_threshold=4.0), quanta=QUANTA)
        assert 0.0 <= r.benign_probability <= 1.0

    def test_all_heuristics_run(self):
        for h in ("type1", "type2", "type3", "type3g", "type4"):
            r = fast_run_adts("mix07", h, ThresholdConfig(ipc_threshold=3.0), quanta=24)
            assert r.ipc > 0

    def test_type3g_switches_no_more_than_type3(self):
        th = ThresholdConfig(ipc_threshold=4.0)
        t3 = sum(fast_run_adts(m, "type3", th, quanta=QUANTA).switches for m in ("mix02", "mix05"))
        t3g = sum(fast_run_adts(m, "type3g", th, quanta=QUANTA).switches for m in ("mix02", "mix05"))
        assert t3g <= t3  # the gradient hold can only suppress switches

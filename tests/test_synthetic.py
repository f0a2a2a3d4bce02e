"""Tests for the custom-workload builder."""

import numpy as np
import pytest

from repro.smt.config import SMTConfig
from repro.smt.pipeline import SMTProcessor
from repro.workloads.synthetic import PRESETS, get_preset, make_profile
from repro.workloads.tracegen import TraceGenerator


class TestMakeProfile:
    def test_basic(self):
        p = make_profile("x", ilp=1.0, memory_intensity=0.3)
        assert p.name == "x"
        assert p.load_frac + p.store_frac == pytest.approx(0.3, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_profile("x", memory_intensity=0.9)
        with pytest.raises(ValueError):
            make_profile("x", branchiness=1.5)
        with pytest.raises(ValueError):
            make_profile("x", predictability=0.2)
        with pytest.raises(ValueError):
            make_profile("x", footprint_mb=0)
        with pytest.raises(ValueError):
            make_profile("x", ilp=0)

    def test_branchiness_maps_to_block_length(self):
        assert make_profile("a", branchiness=1.0).avg_block < \
            make_profile("b", branchiness=0.0).avg_block

    def test_fp_share_sets_suite(self):
        assert make_profile("a", fp_share=0.8).suite == "fp"
        assert make_profile("b", fp_share=0.2).suite == "int"

    def test_ilp_sets_class(self):
        assert make_profile("a", ilp=1.5).ipc_class == "high"
        assert make_profile("b", ilp=0.4).ipc_class == "low"


class TestPresets:
    def test_all_presets_valid(self):
        for name, p in PRESETS.items():
            assert p.name == name

    def test_get_preset_unknown(self):
        with pytest.raises(KeyError):
            get_preset("quantum_annealer")

    def test_presets_runnable(self):
        cfg = SMTConfig(num_threads=2)
        traces = [
            TraceGenerator(get_preset("pointer_chase"), 0, np.random.default_rng(0)),
            TraceGenerator(get_preset("compute"), 1, np.random.default_rng(1)),
        ]
        proc = SMTProcessor(cfg, traces, quantum_cycles=512)
        proc.run(3000)
        assert proc.stats.committed > 100

    def test_compute_beats_pointer_chase_alone(self):
        cfg = SMTConfig(num_threads=1)
        ipcs = {}
        for name in ("compute", "pointer_chase"):
            trace = TraceGenerator(get_preset(name), 0, np.random.default_rng(0))
            proc = SMTProcessor(cfg, [trace], quantum_cycles=512)
            proc.run(6000)
            ipcs[name] = proc.stats.ipc
        assert ipcs["compute"] > 2 * ipcs["pointer_chase"]

    def test_branch_storm_mispredicts_more_than_stream(self):
        cfg = SMTConfig(num_threads=1)
        rates = {}
        for name in ("branch_storm", "stream"):
            trace = TraceGenerator(get_preset(name), 0, np.random.default_rng(0))
            proc = SMTProcessor(cfg, [trace], quantum_cycles=512)
            proc.run(6000)
            rates[name] = proc.stats.mispredict_rate
        assert rates["branch_storm"] > rates["stream"]

"""Tests for the top-level public API (`repro.build_processor`)."""

import pytest

import repro
from repro import build_processor
from repro.smt.config import SMTConfig


class TestBuildProcessor:
    def test_named_mix(self):
        proc = build_processor(mix="mix01", quantum_cycles=512)
        assert proc.num_threads == 8

    def test_named_mix_downsampled(self):
        proc = build_processor(mix="mix01", num_threads=4, quantum_cycles=512)
        assert proc.num_threads == 4

    def test_explicit_app_list(self):
        proc = build_processor(mix=["gzip", "mcf"], quantum_cycles=512)
        assert proc.num_threads == 2

    def test_unknown_mix_raises(self):
        with pytest.raises(KeyError):
            build_processor(mix="mix42")

    def test_config_thread_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_processor(mix="mix01", config=SMTConfig(num_threads=4))

    def test_custom_policy(self):
        proc = build_processor(mix=["gzip"], policy="rr", quantum_cycles=512)
        assert proc.policy_name == "rr"

    def test_seed_reproducibility(self):
        a = build_processor(mix="mix05", seed=11, quantum_cycles=512)
        b = build_processor(mix="mix05", seed=11, quantum_cycles=512)
        a.run(800)
        b.run(800)
        assert a.stats.committed == b.stats.committed


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

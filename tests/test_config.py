"""Tests for the machine configuration."""

import pytest

from repro.smt.config import DEFAULT_LATENCIES, SMTConfig
from repro.smt.instruction import FDIV, IALU


class TestSMTConfig:
    def test_defaults_paper_compatible(self):
        cfg = SMTConfig()
        assert cfg.num_threads == 8
        assert cfg.fetch_width == 8
        assert cfg.fetch_threads_per_cycle == 2  # ICOUNT.2.8
        assert cfg.mem_ports <= cfg.int_units

    def test_thread_bounds(self):
        with pytest.raises(ValueError):
            SMTConfig(num_threads=0)
        with pytest.raises(ValueError):
            SMTConfig(num_threads=64)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            SMTConfig(fetch_width=0)
        with pytest.raises(ValueError):
            SMTConfig(commit_width=0)

    def test_mem_ports_bound(self):
        with pytest.raises(ValueError):
            SMTConfig(int_units=2, mem_ports=3)

    def test_unknown_predictor(self):
        # The modeled machine has one predictor (bimodal): no choice of
        # predictor is a setting, so naming one is refused.
        with pytest.raises(TypeError):
            SMTConfig(predictor="gshare")

    def test_rob_bound(self):
        with pytest.raises(ValueError):
            SMTConfig(rob_entries_per_thread=0)

    def test_fetch_threads_bound(self):
        with pytest.raises(ValueError):
            SMTConfig(fetch_threads_per_cycle=0)

    def test_misfetch_penalty_positive(self):
        assert SMTConfig().misfetch_penalty >= 1
        assert SMTConfig(front_end_stages=2).misfetch_penalty >= 1

    def test_frozen(self):
        cfg = SMTConfig()
        with pytest.raises(Exception):
            cfg.num_threads = 4


class TestLatencies:
    def test_all_kinds_have_latencies(self):
        from repro.smt.instruction import KIND_NAMES

        assert set(DEFAULT_LATENCIES) == set(KIND_NAMES)

    def test_fdiv_slowest_compute(self):
        assert DEFAULT_LATENCIES[FDIV] > DEFAULT_LATENCIES[IALU]

"""Tests for the experiment harness (runner, sweep, report)."""

import pytest

from repro.harness.report import format_series, format_table
from repro.harness.runner import RunConfig, run_adts, run_fixed, run_mix_average
from repro.harness.sweep import threshold_type_grid
from repro.smt.config import SMTConfig


def tiny_run(**over):
    base = dict(
        mix=["gzip", "mcf"],
        num_threads=2,
        quantum_cycles=256,
        quanta=4,
        warmup_quanta=1,
        machine=SMTConfig(num_threads=2),
    )
    base.update(over)
    return RunConfig(**base)


class TestRunner:
    def test_run_fixed_measures_post_warmup_window(self):
        cfg = tiny_run()
        r = run_fixed(cfg)
        assert r.cycles == 4 * 256
        assert len(r.quantum_ipcs) == 4
        assert r.ipc == pytest.approx(r.committed / r.cycles)
        assert r.scheduler["mode"] == "fixed"

    def test_run_fixed_respects_policy(self):
        r = run_fixed(tiny_run(policy="rr"))
        assert r.scheduler["policy"] == "rr"

    def test_run_adts_reports_scheduler_summary(self):
        r = run_adts(tiny_run(), heuristic="type1")
        assert r.scheduler["mode"] == "adts"
        assert "switches" in r.scheduler
        assert "benign_probability" in r.scheduler

    def test_deterministic(self):
        a = run_fixed(tiny_run(seed=5))
        b = run_fixed(tiny_run(seed=5))
        assert a.ipc == b.ipc

    def test_mix_average_fixed(self):
        out = run_mix_average(["mix01", "mix02"], tiny_run(mix="mix01", num_threads=2))
        assert set(out["per_mix_ipc"]) == {"mix01", "mix02"}
        assert out["mean_ipc"] == pytest.approx(
            sum(out["per_mix_ipc"].values()) / 2
        )

    def test_mix_average_adts_aggregates_switches(self):
        out = run_mix_average(
            ["mix01"], tiny_run(mix="mix01", num_threads=2), heuristic="type1"
        )
        assert out["switches"] >= 0
        assert 0.0 <= out["benign_probability"] <= 1.0


class TestSweep:
    def test_grid_shape_and_series(self):
        grid = threshold_type_grid(
            tiny_run(),
            mixes=["mix01"],
            thresholds=(1.0, 9.0),
            heuristics=("type1", "type3"),
        )
        assert set(grid.ipc) == {(1.0, "type1"), (1.0, "type3"), (9.0, "type1"), (9.0, "type3")}
        assert len(grid.series_ipc_vs_threshold("type1")) == 2
        assert len(grid.series_ipc_vs_type(9.0)) == 2
        assert len(grid.series_switches_vs_threshold("type3")) == 2
        assert len(grid.series_benign_vs_type(1.0)) == 2
        threshold, heuristic = grid.best_cell()
        assert threshold in (1.0, 9.0) and heuristic in ("type1", "type3")

    def test_absurd_threshold_forces_switching(self):
        grid = threshold_type_grid(
            tiny_run(), mixes=["mix01"], thresholds=(99.0,), heuristics=("type1",)
        )
        assert grid.switches[(99.0, "type1")] > 0


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.500" in text and "0.125" in text

    def test_format_series(self):
        s = format_series("x", [1, 2], [0.5, 1.5])
        assert s == "x: 1=0.500  2=1.500"

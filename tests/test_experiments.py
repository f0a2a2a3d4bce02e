"""Tests for the experiment definitions (tiny configurations)."""

import pytest

from repro.harness.experiments import (
    ExperimentDefaults,
    experiment_detector_overhead,
    experiment_fig8,
    experiment_headline,
    experiment_similarity,
    experiment_table1,
    experiment_thread_scaling,
    run_grid,
)

TINY = ExperimentDefaults(
    quantum_cycles=512,
    quanta=3,
    warmup_quanta=1,
    quick_mixes=("mix01", "mix10"),
    thresholds=(1.0, 9.0),
    heuristics=("type1", "type3"),
)


@pytest.fixture(scope="module")
def tiny_grid():
    return run_grid(TINY, quick=True)


class TestTable1:
    def test_structure(self):
        out = experiment_table1(TINY, quick=True, policies=("icount", "rr"))
        assert out["experiment"] == "T1"
        assert {r["policy"] for r in out["rows"]} == {"icount", "rr"}
        assert set(out["rows"][0]["per_mix"]) == {"mix01", "mix10"}
        # Sorted best-first.
        assert out["rows"][0]["mean_ipc"] >= out["rows"][1]["mean_ipc"]


class TestGridExperiments:
    def test_fig7_series_shapes(self, tiny_grid):
        # The Figure 7 benchmarks read these series straight off the grid.
        assert len(tiny_grid.series_switches_vs_threshold("type1")) == 2
        assert len(tiny_grid.series_benign_vs_threshold("type3")) == 2
        assert len(tiny_grid.series_switches_vs_type(1.0)) == 2
        assert len(tiny_grid.series_benign_vs_type(9.0)) == 2

    def test_fig8_series_and_best_cell(self, tiny_grid):
        out = experiment_fig8(tiny_grid, icount_baseline=1.0)
        assert len(out["ipc_vs_threshold"]["type3"]) == 2
        best = out["best_cell"]
        assert best["threshold"] in (1.0, 9.0)
        assert best["heuristic"] in ("type1", "type3")
        assert out["best_improvement_over_icount"] == pytest.approx(best["ipc"] - 1.0, rel=1e-6)

    def test_absurd_threshold_always_low_throughput(self, tiny_grid):
        # m=9 must switch far more than m=1.
        assert tiny_grid.switches[(9.0, "type1")] > tiny_grid.switches[(1.0, "type1")]


class TestHeadline:
    def test_structure(self):
        out = experiment_headline(TINY, quick=True)
        assert set(out["per_mix"]) == {"mix01", "mix10"}
        for v in out["per_mix"].values():
            assert v["icount_ipc"] > 0
            assert v["adts_ipc"] > 0
        assert out["mean_improvement"] == pytest.approx(
            out["mean_adts_ipc"] / out["mean_icount_ipc"] - 1.0
        )


class TestSimilarity:
    def test_structure(self):
        out = experiment_similarity(
            TINY, homogeneous=("mix09",), diverse=("mix13",)
        )
        assert out["homogeneous"]["mean_similarity"] == 1.0
        assert out["diverse"]["mean_similarity"] < 1.0
        assert "mix09" in out["homogeneous"]["per_mix_improvement"]


class TestThreadScaling:
    def test_structure(self):
        out = experiment_thread_scaling(TINY, mix="mix01", thread_counts=(2, 4))
        assert [r["threads"] for r in out["rows"]] == [2, 4]
        assert all(r["icount_ipc"] > 0 for r in out["rows"])

    def test_more_threads_more_throughput(self):
        out = experiment_thread_scaling(TINY, mix="mix01", thread_counts=(1, 8))
        assert out["rows"][1]["icount_ipc"] > out["rows"][0]["icount_ipc"]


class TestDetectorOverhead:
    def test_structure(self):
        out = experiment_detector_overhead(TINY, mix="mix10")
        assert out["real_dt"]["ipc"] > 0
        assert out["instant_dt"]["ipc"] > 0
        assert "dt_instructions" in out["real_dt"]

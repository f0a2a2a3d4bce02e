"""Tests for the experiment definitions (tiny configurations)."""

from dataclasses import replace

import pytest

from repro.core.thresholds import ThresholdConfig
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
from repro.harness.runner import run_adts, run_fixed

TINY = ExperimentDefaults(
    quantum_cycles=512,
    quanta=3,
    warmup_quanta=1,
    quick_mixes=("mix01", "mix10"),
    thresholds=(1.0, 9.0),
    heuristics=("type1", "type3"),
)

#: S1 and S6-2 run fixed mix and thread-count sets; shorter runs keep them cheap.
SHORT = replace(TINY, quantum_cycles=256, quanta=2, warmup_quanta=0)


@pytest.fixture(scope="module")
def tiny_grid():
    return run_grid(TINY, quick=True)


@pytest.fixture(scope="module")
def tiny_icount():
    return experiment_table1(TINY, quick=True, policies=("icount",))


class TestTable1:
    def test_structure(self):
        out = experiment_table1(TINY, quick=True, policies=("icount", "rr"))
        assert out["experiment"] == "T1"
        assert {r["policy"] for r in out["rows"]} == {"icount", "rr"}
        assert set(out["rows"][0]["per_mix"]) == {"mix01", "mix10"}
        # Sorted best-first.
        assert out["rows"][0]["mean_ipc"] >= out["rows"][1]["mean_ipc"]

    def test_mixes_override(self, tiny_icount):
        """A mix override runs those mixes, in that order; the row's mean
        is the mean of its per-mix runs (Figure 8's baseline)."""
        out = experiment_table1(TINY, policies=("icount",), mixes=("mix10", "mix01"))
        assert out["mixes"] == ["mix10", "mix01"]
        (row,) = out["rows"]
        assert list(row["per_mix"]) == ["mix10", "mix01"]
        assert row["per_mix"] == tiny_icount["rows"][0]["per_mix"]
        assert out["mean_ipc"]["icount"] == row["mean_ipc"] == (
            sum(row["per_mix"].values()) / 2
        )


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

    def test_per_mix_switches_sum_to_cell(self, tiny_grid):
        for (m, h), total in tiny_grid.switches.items():
            assert sum(tiny_grid.per_mix_switches[(m, h, mix)]
                       for mix in tiny_grid.mixes) == total


class TestHeadline:
    """S6-1 is a view of Table 1's ICOUNT row and the grid's cells."""

    def test_structure(self, tiny_icount, tiny_grid):
        out = experiment_headline(tiny_icount, tiny_grid, threshold=9.0)
        assert set(out["per_mix"]) == {"mix01", "mix10"}
        for v in out["per_mix"].values():
            assert v["icount_ipc"] > 0
            assert v["adts_ipc"] > 0
        assert out["mean_improvement"] == pytest.approx(
            out["mean_adts_ipc"] / out["mean_icount_ipc"] - 1.0
        )

    def test_matches_lone_runs(self, tiny_icount, tiny_grid):
        """Each mix's row equals a lone fixed-ICOUNT run and a lone ADTS
        run, in IPC and switches."""
        out = experiment_headline(tiny_icount, tiny_grid, threshold=9.0, heuristic="type3")
        th = ThresholdConfig(ipc_threshold=9.0)
        for mix, row in out["per_mix"].items():
            cfg = replace(TINY.base_run(), mix=mix)
            fixed = run_fixed(cfg)
            adts = run_adts(cfg, heuristic="type3", thresholds=th)
            assert row["icount_ipc"] == fixed.ipc
            assert row["adts_ipc"] == adts.ipc
            assert row["switches"] == adts.scheduler["switches"]
        assert sum(row["switches"] for row in out["per_mix"].values()) > 0

    def test_rejects_other_mixes(self, tiny_grid):
        icount = experiment_table1(TINY, policies=("icount",), mixes=("mix01",))
        with pytest.raises(ValueError, match="mixes"):
            experiment_headline(icount, tiny_grid, threshold=9.0)


class TestSimilarity:
    def test_structure(self):
        out = experiment_similarity(SHORT)
        assert out["homogeneous"]["mean_similarity"] == 1.0
        assert out["diverse"]["mean_similarity"] < 1.0
        assert "mix09" in out["homogeneous"]["per_mix_improvement"]


class TestThreadScaling:
    @pytest.fixture(scope="class")
    def scaling(self):
        return experiment_thread_scaling(SHORT, mix="mix01")

    def test_structure(self, scaling):
        assert [r["threads"] for r in scaling["rows"]] == [2, 4, 6, 8]
        assert all(r["icount_ipc"] > 0 for r in scaling["rows"])

    def test_more_threads_more_throughput(self, scaling):
        assert scaling["rows"][-1]["icount_ipc"] > scaling["rows"][0]["icount_ipc"]


class TestDetectorOverhead:
    def test_structure(self):
        out = experiment_detector_overhead(TINY, mix="mix10")
        assert out["real_dt"]["ipc"] > 0
        assert out["instant_dt"]["ipc"] > 0
        assert "dt_instructions" in out["real_dt"]

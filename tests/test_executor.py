"""Tests for the process-isolated supervised executor
(repro.harness.executor): determinism across worker counts, crash
containment, SIGKILL-enforced timeout/heartbeat limits, restart with
fault stripping, journaled supervised sweeps and the failure taxonomy."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.faults import FaultPlan
from repro.harness.errors import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_STALLED,
    FAILURE_TIMEOUT,
    RunFailedError,
)
from repro.harness.executor import (
    ExecutorConfig,
    SupervisedExecutor,
    WorkItem,
    register_task_kind,
)
from repro.harness.journal import RunJournal
from repro.harness.runner import RunConfig
from repro.harness.sweep import threshold_type_grid

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="custom task kinds registered in the test module need fork workers",
)


def tiny_base(**over):
    base = dict(quanta=3, warmup_quanta=1, quantum_cycles=256, seed=1)
    base.update(over)
    return RunConfig(**base)


def grid_item(label="cell", mix="mix02", fault_plan=None):
    """A one-cell ``grid_batch`` item (threshold 2, Type 3)."""
    spec = {"config": tiny_base(), "cells": [(2.0, "type3", mix, "cell")],
            "fault_plan": fault_plan}
    return WorkItem(label=label, kind="grid_batch", spec=spec)


# -- task kinds used to provoke specific failure modes (fork workers inherit
#    this registry; under spawn they would not see test-module registrations).
def _crash_task(spec, progress, ckpt):
    import faulthandler

    faulthandler.disable()  # the segfault is deliberate; keep logs readable
    progress(0)
    os.kill(os.getpid(), signal.SIGSEGV)


def _hang_task(spec, progress, ckpt):
    for q in range(spec.get("beats", 1)):
        progress(q)
    while True:
        time.sleep(0.05)


def _flaky_task(spec, progress, ckpt):
    progress(0)
    marker = spec["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1 died here")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"ok": True}


def _error_task(spec, progress, ckpt):
    progress(0)
    raise ValueError("deliberate worker exception")


register_task_kind("test_crash", _crash_task)
register_task_kind("test_hang", _hang_task)
register_task_kind("test_flaky", _flaky_task)
register_task_kind("test_error", _error_task)


class TestDeterministicAggregation:
    """Supervised grid == per-cell ``run_adts``, any worker count, any
    completion order."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_grid_matches_serial(self, workers, reference_grid):
        base = tiny_base()
        mixes = ["mix02", "mix05"]
        kw = dict(thresholds=(1.0, 3.0), heuristics=("type1", "type3"))
        ex = SupervisedExecutor(ExecutorConfig(workers=workers))
        par = threshold_type_grid(base, mixes, executor=ex, **kw)
        ref = reference_grid(base, mixes, **kw)
        assert par == ref
        assert par.best_cell() == ref.best_cell()
        assert ex.failures == []

    def test_journal_round_trip(self, tmp_path):
        base = tiny_base()
        path = tmp_path / "grid.jsonl"
        with RunJournal(path) as j:
            ex = SupervisedExecutor(ExecutorConfig(workers=2))
            first = threshold_type_grid(
                base, ["mix02"], thresholds=(2.0,), heuristics=("type3",),
                executor=ex, journal=j)
        with RunJournal(path) as j2:
            assert j2.load() == 1
            # Every cell served from the journal: no workers spawned at all.
            ex2 = SupervisedExecutor(ExecutorConfig(workers=2))
            again = threshold_type_grid(
                base, ["mix02"], thresholds=(2.0,), heuristics=("type3",),
                executor=ex2, journal=j2)
        assert again.ipc == first.ipc


@fork_only
class TestCrashContainment:
    def test_segfault_fails_only_its_cell(self):
        """A SIGSEGV in one worker must not take down the batch."""
        ex = SupervisedExecutor(ExecutorConfig(workers=2, max_restarts=0))
        with pytest.raises(RunFailedError):
            ex.run([WorkItem(label="boom", kind="test_crash"), grid_item()])
        assert ex.failures[0]["kind"] == FAILURE_CRASH
        assert "boom" in ex.failures[0]["label"]

    def test_injected_worker_crash_survived_by_stripped_retry(self):
        """A seeded worker-crash fault kills attempt 1; the retry strips the
        process-killing fault family and completes with the clean result."""
        plan = FaultPlan(seed=7, worker_crash_rate=1.0)
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, max_restarts=1, restart_backoff_s=0.01))
        res = ex.run([grid_item("crashy", mix="mix05", fault_plan=plan)])
        assert "crashy" in res
        assert [f["kind"] for f in ex.failures] == [FAILURE_CRASH]
        # Stripped plan == no live faults: result equals a fault-free run.
        ex2 = SupervisedExecutor(ExecutorConfig(workers=1))
        clean = ex2.run([grid_item("clean", mix="mix05")])
        assert res["crashy"] == clean["clean"]

    def test_worker_exception_classified_and_raised(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1, max_restarts=0))
        with pytest.raises(RunFailedError) as exc:
            ex.run([WorkItem(label="raiser", kind="test_error")])
        assert ex.failures[0]["kind"] == FAILURE_EXCEPTION
        assert "deliberate worker exception" in ex.failures[0]["detail"]
        assert "raiser" in str(exc.value)


@fork_only
class TestHardLimits:
    def test_stale_heartbeat_gets_sigkilled(self):
        """A hung worker (heartbeats stopped) is killed within the staleness
        limit — the hang an in-process thread timeout cannot stop."""
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, heartbeat_timeout_s=0.3, max_restarts=0,
            poll_interval_s=0.02))
        start = time.monotonic()
        with pytest.raises(RunFailedError):
            ex.run([WorkItem(label="hung", kind="test_hang")])
        assert time.monotonic() - start < 10.0
        assert ex.failures[0]["kind"] == FAILURE_STALLED

    def test_wall_clock_limit_gets_sigkilled(self):
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, run_timeout_s=0.3, max_restarts=0, poll_interval_s=0.02))
        with pytest.raises(RunFailedError):
            ex.run([WorkItem(label="slow", kind="test_hang", spec={"beats": 1})])
        assert ex.failures[0]["kind"] == FAILURE_TIMEOUT

    def test_injected_worker_hang_killed_then_stripped_retry_completes(self):
        plan = FaultPlan(seed=3, worker_hang_rate=1.0, worker_hang_seconds=60.0)
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, heartbeat_timeout_s=0.4, max_restarts=1,
            restart_backoff_s=0.01, poll_interval_s=0.02))
        res = ex.run([grid_item("hangy", fault_plan=plan)])
        assert "hangy" in res
        assert [f["kind"] for f in ex.failures] == [FAILURE_STALLED]


@fork_only
class TestRestarts:
    def test_flaky_cell_recovers_within_budget(self, tmp_path):
        marker = tmp_path / "died-once"
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, max_restarts=2, restart_backoff_s=0.01))
        res = ex.run([WorkItem(label="flaky", kind="test_flaky",
                               spec={"marker": str(marker)})])
        assert res["flaky"] == {"ok": True}
        assert len(ex.failures) == 1  # exactly one failed attempt

    def test_restart_budget_exhaustion_raises_with_cause(self):
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, max_restarts=1, restart_backoff_s=0.01))
        with pytest.raises(RunFailedError) as exc:
            ex.run([WorkItem(label="boom", kind="test_crash")])
        assert exc.value.attempts == 2
        assert len(ex.failures) == 2


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"workers": 0},
        {"max_restarts": -1},
        {"run_timeout_s": 0},
        {"heartbeat_timeout_s": -1.0},
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            ExecutorConfig(**kw)

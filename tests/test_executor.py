"""Tests for the process-isolated supervised executor
(repro.harness.executor): determinism across worker counts, crash
containment, SIGKILL-enforced timeout/heartbeat limits, restart with
fault stripping, journaled supervised sweeps, the failure taxonomy and
worker reuse under backlog."""

import gc
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from conftest import pump_until_idle

import repro
from repro.core.thresholds import ThresholdConfig
from repro.faults.plan import FaultPlan
from repro.harness.errors import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_INVARIANT,
    FAILURE_STALLED,
    FAILURE_TIMEOUT,
    RunFailedError,
)
from repro.harness.executor import (
    RESTART_BACKOFF_S,
    ExecutorConfig,
    SupervisedExecutor,
    WorkItem,
    register_task_kind,
)
from repro.harness.journal import RunJournal
from repro.harness.runner import BatchRunSpec, RunConfig
from repro.harness.sweep import threshold_type_grid
from repro.service.request import SimRequest
from repro.service.service import ServiceConfig, SimulationService
from repro.smt.invariants import InvariantViolation

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="custom task kinds registered in the test module need fork workers",
)


def tiny_base(**over):
    base = dict(quanta=3, warmup_quanta=1, quantum_cycles=256, seed=1)
    base.update(over)
    return RunConfig(**base)


def run(mix="mix02", fault_plan=None):
    """One ADTS run (threshold 2, Type 3) on the tiny base config."""
    return BatchRunSpec(config=tiny_base(mix=mix), heuristic="type3",
                        thresholds=ThresholdConfig(ipc_threshold=2.0),
                        fault_plan=fault_plan)


def grid_item(label="cell", mix="mix02", fault_plan=None):
    """A one-cell ``grid_batch`` item (threshold 2, Type 3)."""
    spec = {"cells": [("cell", run(mix, fault_plan))]}
    return WorkItem(label=label, kind="grid_batch", spec=spec)


def service_item(label="svc", mix="mix02"):
    """A ``service_cell`` item: one ADTS run, as the simulation service
    submits it."""
    return WorkItem(label=label, kind="service_cell", spec={"run": run(mix)})


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


def _invariant_task(spec, progress, ckpt):
    progress(0)
    raise InvariantViolation("deliberate", 0, "test invariant failure")


def _pid_task(spec, progress, ckpt):
    progress(0)
    return {"pid": os.getpid()}


class _Node:
    pass


_CYCLES = []  # weak references to the cycles _cycle_task made in this process


def _cycle_task(spec, progress, ckpt):
    """Leave a reference cycle behind, with automatic collection off so
    only the worker's own collection can free it."""
    progress(0)
    node = _Node()
    node.self = node
    _CYCLES.append(weakref.ref(node))
    gc.disable()
    return {"pid": os.getpid()}


def _cycle_probe_task(spec, progress, ckpt):
    progress(0)
    gc.enable()
    return {"seen": len(_CYCLES), "alive": sum(r() is not None for r in _CYCLES)}


register_task_kind("test_crash", _crash_task)
register_task_kind("test_hang", _hang_task)
register_task_kind("test_flaky", _flaky_task)
register_task_kind("test_error", _error_task)
register_task_kind("test_invariant", _invariant_task)
register_task_kind("test_pid", _pid_task)
register_task_kind("test_cycle", _cycle_task)
register_task_kind("test_cycle_probe", _cycle_probe_task)


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
        ex = SupervisedExecutor(ExecutorConfig(workers=1, max_restarts=1))
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
            workers=1, heartbeat_timeout_s=0.3, max_restarts=0))
        start = time.monotonic()
        with pytest.raises(RunFailedError):
            ex.run([WorkItem(label="hung", kind="test_hang")])
        assert time.monotonic() - start < 10.0
        assert ex.failures[0]["kind"] == FAILURE_STALLED

    def test_wall_clock_limit_gets_sigkilled(self):
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, run_timeout_s=0.3, max_restarts=0))
        with pytest.raises(RunFailedError):
            ex.run([WorkItem(label="slow", kind="test_hang", spec={"beats": 1})])
        assert ex.failures[0]["kind"] == FAILURE_TIMEOUT

    def test_injected_worker_hang_killed_then_stripped_retry_completes(self):
        plan = FaultPlan(seed=3, worker_hang_rate=1.0)
        ex = SupervisedExecutor(ExecutorConfig(
            workers=1, heartbeat_timeout_s=0.4, max_restarts=1))
        res = ex.run([grid_item("hangy", fault_plan=plan)])
        assert "hangy" in res
        assert [f["kind"] for f in ex.failures] == [FAILURE_STALLED]


@fork_only
class TestRestarts:
    def test_flaky_cell_recovers_within_budget(self, tmp_path):
        marker = tmp_path / "died-once"
        ex = SupervisedExecutor(ExecutorConfig(workers=1, max_restarts=2))
        start = time.monotonic()
        res = ex.run([WorkItem(label="flaky", kind="test_flaky",
                               spec={"marker": str(marker)})])
        assert res["flaky"] == {"ok": True}
        assert len(ex.failures) == 1  # exactly one failed attempt
        # The retry waited out the first backoff step.
        assert time.monotonic() - start >= RESTART_BACKOFF_S

    def test_restart_budget_exhaustion_raises_with_cause(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1, max_restarts=1))
        with pytest.raises(RunFailedError) as exc:
            ex.run([WorkItem(label="boom", kind="test_crash")])
        assert exc.value.attempts == 2
        assert len(ex.failures) == 2


def _alive(pid):
    """Whether ``pid`` runs: not reaped and, where /proc shows it, not a
    zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _finish(ex, timeout_s=60.0):
    """Pump ``ex`` until its one live attempt finishes; return the outcome."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        outs = ex.pump()
        if outs:
            (out,) = outs
            return out
        time.sleep(0.01)
    pytest.fail(f"no attempt finished within {timeout_s:g}s")


def _run_queued(ex, items):
    """Run ``items`` as a caller with a backlog does: each item is spawned
    right after the pump that reaped the previous one. Returns one
    ``(outcome, worker pid)`` per item."""
    out = []
    for item in items:
        ex.spawn_attempt(item)
        (worker,) = ex.live_workers()
        out.append((_finish(ex), worker["pid"]))
    return out


_SUPERVISOR = """
import time
from repro.harness.executor import (
    ExecutorConfig, SupervisedExecutor, WorkItem, register_task_kind)

register_task_kind("noop", lambda spec, progress, ckpt: {})
ex = SupervisedExecutor(ExecutorConfig(workers=1))
ex.spawn_attempt(WorkItem(label="a", kind="noop"))
(worker,) = ex.live_workers()
deadline = time.monotonic() + 60
while not ex.pump() and time.monotonic() < deadline:
    time.sleep(0.01)
print(worker["pid"], flush=True)
time.sleep(60)
"""


@fork_only
class TestWorkerReuse:
    """A worker that finishes an item while another waits runs that item
    too; every rule that keeps reuse invisible holds."""

    @pytest.mark.parametrize("make_item", [service_item, grid_item])
    def test_queued_items_share_one_worker(self, make_item):
        items = [make_item("a", mix="mix02"), make_item("b", mix="mix05")]
        ex = SupervisedExecutor(ExecutorConfig(workers=1))
        try:
            (a, pid_a), (b, pid_b) = _run_queued(ex, items)
        finally:
            ex.shutdown()
        assert pid_a == pid_b
        for out, item in ((a, items[0]), (b, items[1])):
            fresh = SupervisedExecutor(ExecutorConfig(workers=1)).run([item])
            assert out.payload == fresh[item.result_key]

    def test_batch_run_reuses_the_worker(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1))
        res = ex.run([WorkItem(label=k, kind="test_pid") for k in "abc"])
        assert len({r["pid"] for r in res.values()}) == 1
        assert not any(_alive(r["pid"]) for r in res.values())

    @pytest.mark.parametrize("kind, limits, failure", [
        ("test_error", {}, FAILURE_EXCEPTION),
        ("test_invariant", {}, FAILURE_INVARIANT),
        ("test_crash", {}, FAILURE_CRASH),
        ("test_hang", {"run_timeout_s": 0.5}, FAILURE_TIMEOUT),
        ("test_hang", {"heartbeat_timeout_s": 0.5}, FAILURE_STALLED),
    ])
    def test_failed_worker_is_never_reused(self, kind, limits, failure):
        ex = SupervisedExecutor(ExecutorConfig(workers=1, max_restarts=0, **limits))
        try:
            (bad, bad_pid), (good, good_pid) = _run_queued(ex, [
                WorkItem(label="bad", kind=kind), WorkItem(label="next", kind="test_pid")])
        finally:
            ex.shutdown()
        assert bad.failure_kind == failure
        assert good.payload == {"pid": good_pid}
        assert good_pid != bad_pid and not _alive(bad_pid)

    def test_idle_worker_retired_by_next_pump(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1))
        try:
            ((out, pid),) = _run_queued(ex, [WorkItem(label="a", kind="test_pid")])
            assert out.ok and _alive(pid)  # idle: an item may still come
            assert ex.pump() == []
            assert not _alive(pid)
        finally:
            ex.shutdown()

    def test_item_for_a_dead_idle_worker_runs_in_a_fresh_one(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1, max_restarts=0))
        try:
            ((_, pid),) = _run_queued(ex, [WorkItem(label="a", kind="test_pid")])
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            ((out, new_pid),) = _run_queued(ex, [WorkItem(label="b", kind="test_pid")])
        finally:
            ex.shutdown()
        assert out.payload == {"pid": new_pid} and new_pid != pid
        assert ex.failures == []

    def test_shutdown_retires_idle_worker(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1))
        ((out, pid),) = _run_queued(ex, [WorkItem(label="a", kind="test_pid")])
        assert out.ok and _alive(pid)
        ex.shutdown()
        assert not _alive(pid)

    def test_drain_retires_idle_worker(self):
        svc = SimulationService(ServiceConfig(workers=1))
        svc.submit(SimRequest(request_id="r1", quanta=1, warmup_quanta=0,
                              quantum_cycles=128))
        svc.pump()
        (worker,) = svc.executor.live_workers()
        pump_until_idle(svc, 60)
        assert svc.inflight == 0 and _alive(worker["pid"])
        svc.drain()
        assert not _alive(worker["pid"])

    def test_cycles_freed_before_next_task(self):
        ex = SupervisedExecutor(ExecutorConfig(workers=1))
        try:
            (made, pid_a), (probe, pid_b) = _run_queued(ex, [
                WorkItem(label="make", kind="test_cycle"),
                WorkItem(label="probe", kind="test_cycle_probe")])
        finally:
            ex.shutdown()
        assert made.ok and pid_a == pid_b
        assert probe.payload == {"seen": 1, "alive": 0}

    def test_idle_worker_exits_when_supervisor_dies(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        sup = subprocess.Popen(
            [sys.executable, "-c", _SUPERVISOR], stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": src})
        worker = None
        try:
            ready, _, _ = select.select([sup.stdout], [], [], 60)
            assert ready, "the supervisor never reported an idle worker"
            worker = int(sup.stdout.readline())
            assert _alive(worker)
            sup.kill()
            sup.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _alive(worker)
        finally:
            if sup.poll() is None:
                sup.kill()
                sup.wait(timeout=10)
            sup.stdout.close()
            if worker is not None and _alive(worker):
                os.kill(worker, signal.SIGKILL)


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

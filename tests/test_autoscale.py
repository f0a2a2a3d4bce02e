"""Autoscaler state machine, the soft-cap actuator, service integration,
and SIGTERM drain with scaling in flight."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service import (
    Autoscaler,
    AutoscalerConfig,
    AutoscalingPool,
    ServiceConfig,
    SimRequest,
    VirtualClock,
)
from repro.service.service import SimulationService

SRC = str(Path(repro.__file__).resolve().parents[1])


def scaler(**kw):
    defaults = dict(
        min_workers=1, max_workers=6, up_queue_depth=4, down_queue_depth=0,
        up_consecutive=2, down_consecutive=3, cooldown_s=1.0,
        step_up=2, step_down=1, window=8,
    )
    defaults.update(kw)
    return Autoscaler(AutoscalerConfig(**defaults))


class TestAutoscalerConfig:
    @pytest.mark.parametrize("kw", [
        dict(min_workers=0),
        dict(max_workers=1, min_workers=2),
        dict(initial_workers=9),
        dict(miss_rate_threshold=1.5),
        dict(up_consecutive=0),
        dict(cooldown_s=-1.0),
        dict(step_up=0),
    ])
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            AutoscalerConfig(**kw)


class TestHysteresis:
    def test_oscillating_queue_never_flaps(self):
        """Depth alternating spike/empty must produce zero scale events:
        each neutral-or-down observation resets the up streak before it
        reaches the consecutive threshold, and vice versa."""
        s = scaler(up_consecutive=2, down_consecutive=3)
        for i in range(60):
            depth = 10 if i % 2 == 0 else 0
            # Answered work on the quiet ticks keeps miss_rate at 0 but the
            # down-streak still cannot reach 3 before a spike resets it.
            s.observe(now=i * 10.0, queue_depth=depth, answered_delta=1)
        assert s.events == []
        assert s.target == s.config.min_workers
        assert s.scale_ups == 0 and s.scale_downs == 0

    def test_sustained_pressure_scales_up(self):
        s = scaler()
        s.observe(0.0, queue_depth=10)
        assert s.target == 1  # one observation is not a trend
        s.observe(0.1, queue_depth=10)
        assert s.target == 3  # step_up=2
        assert s.events[-1].reason == "queue-depth"

    def test_cooldown_blocks_back_to_back_events(self):
        s = scaler(cooldown_s=5.0)
        for t in (0.0, 0.1, 0.2, 0.3, 0.4):
            s.observe(t, queue_depth=10)
        assert s.scale_ups == 1  # later streaks land inside the cooldown
        s.observe(6.0, queue_depth=10)  # cooled down; streak was primed
        assert s.scale_ups == 2

    def test_bounds_clamp(self):
        s = scaler(max_workers=4, cooldown_s=0.0)
        for i in range(20):
            s.observe(float(i), queue_depth=10)
        assert s.target == 4
        # Pinned at max: pressure produces no further events.
        ups = s.scale_ups
        s.observe(100.0, queue_depth=10)
        s.observe(100.1, queue_depth=10)
        assert s.scale_ups == ups

    def test_idle_scales_down_to_min(self):
        s = scaler(initial_workers=4, cooldown_s=0.0, down_consecutive=2)
        for i in range(20):
            s.observe(float(i), queue_depth=0, answered_delta=1)
        assert s.target == 1
        assert s.events[-1].reason == "idle"

    def test_miss_rate_triggers_up_even_when_queue_shallow(self):
        s = scaler(up_queue_depth=100, cooldown_s=0.0)
        s.observe(0.0, queue_depth=0, shed_delta=3, answered_delta=1)
        s.observe(0.1, queue_depth=0, shed_delta=3, answered_delta=1)
        assert s.target > 1
        assert s.events[-1].reason == "deadline-misses"

    def test_open_breaker_freezes_scaling(self):
        s = scaler()
        for i in range(10):
            s.observe(float(i), queue_depth=50, breaker_open=True)
        assert s.events == [] and s.target == 1
        # Shed work during the open window must not trip the miss-rate path
        # the moment the breaker closes either: streaks restart from zero.
        s.observe(11.0, queue_depth=10)
        assert s.target == 1

    def test_summary_telemetry(self):
        s = scaler(cooldown_s=0.0)
        s.observe(0.0, queue_depth=10)
        s.observe(1.0, queue_depth=10)
        out = s.summary()
        assert out["target"] == 3
        assert out["scale_ups"] == 1 and out["scale_downs"] == 0
        assert out["min_workers"] == 1 and out["max_workers"] == 6
        assert out["events"][0]["reason"] == "queue-depth"
        json.dumps(out)  # telemetry must be wire-ready


class FakeExecutor:
    """Just enough executor surface for AutoscalingPool unit tests."""

    def __init__(self):
        self.soft_cap = None
        self.live = 0
        self.config = type("C", (), {"workers": 8})()
        self.shutdowns = 0

    def has_capacity(self):
        cap = self.config.workers
        if self.soft_cap is not None:
            cap = min(cap, self.soft_cap)
        return self.live < cap

    def shutdown(self):
        self.shutdowns += 1


class TestAutoscalingPool:
    def test_sync_pushes_target_into_soft_cap(self):
        s = scaler(initial_workers=3)
        ex = FakeExecutor()
        pool = AutoscalingPool(ex, s)
        assert ex.soft_cap == 3  # applied at construction
        s.observe(0.0, queue_depth=10)
        s.observe(0.1, queue_depth=10)
        pool.sync()
        assert ex.soft_cap == 5

    def test_delegation_and_capacity(self):
        s = scaler(initial_workers=2)
        ex = FakeExecutor()
        pool = AutoscalingPool(ex, s)
        ex.live = 1
        assert pool.has_capacity()
        ex.live = 2
        assert not pool.has_capacity()  # capped at target, pool size 8
        pool.shutdown()
        assert ex.shutdowns == 1  # __getattr__ delegation


def _req(i, **kw):
    kw.setdefault("client", f"c{i % 3}")
    return SimRequest(request_id=f"r{i:03d}", **kw)


class TestServiceIntegrationInline:
    """workers=0: the target is the per-pump dispatch budget."""

    def _service(self, **scaler_kw):
        clock = VirtualClock()
        cfg = ServiceConfig(
            workers=0, queue_capacity=32,
            autoscaler=AutoscalerConfig(
                min_workers=1, max_workers=4, up_queue_depth=4,
                up_consecutive=2, down_consecutive=4, cooldown_s=0.1,
                **scaler_kw,
            ),
        )
        service = SimulationService(
            cfg,
            full_runner=lambda r: {"ipc": 1.0},
            fast_runner=lambda r: {"ipc": 0.9},
            clock=clock,
        )
        return service, clock

    def test_backlog_scales_up_and_bounds_per_pump_dispatch(self):
        service, clock = self._service()
        for i in range(24):
            service.submit(_req(i))
        assert service.queue.depth == 24
        clock.advance(1.0)
        produced = service.pump()
        # First pump: target still 1, so exactly one inline dispatch.
        assert produced == 1
        clock.advance(1.0)
        service.pump()  # second pressured observation: scale-up commits
        assert service.autoscaler.target > 1
        while service.queue.depth:
            clock.advance(1.0)
            service.pump()
        stats = service.stats()
        assert stats["autoscaler"]["scale_ups"] >= 1
        assert stats["counters"]["completed_full"] == 24
        assert len(service.take_completed()) == 24

    def test_drain_answers_everything_mid_scale_down(self):
        service, clock = self._service()
        for i in range(16):
            service.submit(_req(i))
        clock.advance(1.0)
        service.pump()
        clock.advance(1.0)
        service.pump()  # scaled up with a backlog still queued
        assert service.autoscaler.target > 1
        clock.auto_advance_s = 0.05
        stats = service.drain(10.0)
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        responses = service.take_completed()
        assert stats["counters"]["submitted"] == 16
        assert len(responses) == 16
        assert len({r.request_id for r in responses}) == 16


class TestSoftCapNeverStrands:
    """Real supervised pool: lowering the cap mid-flight gates new spawns
    only — live attempts run to completion."""

    def test_soft_cap_gates_spawns_not_live_work(self, tmp_path):
        from repro.harness.executor import (
            ExecutorConfig,
            SupervisedExecutor,
            WorkItem,
        )
        from repro.harness.runner import RunConfig

        ex = SupervisedExecutor(ExecutorConfig(workers=2, max_restarts=0))
        spec = {
            "config": RunConfig(mix="mix01", quanta=1, warmup_quanta=0,
                                quantum_cycles=128),
            "mode": "fixed", "heuristic": "type3", "threshold": 2.0,
            "fault_plan": None, "strip_worker_faults": False,
            "force_crash": False,
        }
        try:
            for i in range(2):
                assert ex.has_capacity()
                ex.spawn_attempt(
                    WorkItem(label=f"w{i}", kind="service_cell", spec=spec), 1
                )
            # Scale down below the live count: no capacity for new spawns...
            ex.soft_cap = 1
            assert not ex.has_capacity()
            # ...but both in-flight attempts still complete normally.
            outcomes = []
            deadline = time.monotonic() + 120
            while len(outcomes) < 2 and time.monotonic() < deadline:
                outcomes.extend(ex.pump())
                time.sleep(0.02)
            assert len(outcomes) == 2
            assert all(o.ok for o in outcomes)
            # With one slot freed... still capped at 1 live is 0 -> capacity.
            assert ex.has_capacity()
            ex.soft_cap = 0
            assert not ex.has_capacity()
        finally:
            ex.shutdown()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="signal/orphan checks use POSIX + /proc")
class TestSigtermDuringScaleDown:
    def _children(self, pid):
        path = Path(f"/proc/{pid}/task/{pid}/children")
        try:
            return [int(p) for p in path.read_text().split()]
        except (FileNotFoundError, ValueError):
            return []

    def _alive(self, pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def test_drain_contract_holds_with_autoscaler_active(self, tmp_path):
        """SIGTERM while the autoscaled pool is loaded (scale events —
        including downs — in flight): exit 0, every request answered, pool
        gone, no result-store lease left."""
        store = tmp_path / "rs"
        env = {**os.environ, "PYTHONPATH": SRC}
        burst = subprocess.run(
            [sys.executable, "-m", "repro", "burst", "--emit", "--requests",
             "30", "--seed", "1", "--quanta", "1", "--quantum", "128"],
            capture_output=True, text=True, check=True, env=env,
            cwd=str(tmp_path),
        ).stdout
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--autoscale", "1:3", "--autoscale-cooldown", "0.05",
             "--queue-capacity", "16", "--drain-deadline", "60",
             "--result-store", str(store)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=str(tmp_path),
        )
        try:
            assert json.loads(proc.stdout.readline())["event"] == "ready"
            proc.stdin.write(burst)
            proc.stdin.flush()
            deadline = time.monotonic() + 60
            while not self._children(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            workers = self._children(proc.pid)
            assert workers, "pool never spawned"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = [json.loads(l) for l in stdout.splitlines() if l]
        assert events[-1]["event"] == "drained"
        stats = events[-1]["stats"]
        responses = [e["response"] for e in events if e["event"] == "response"]
        # Conservation: one response per submitted request, none stranded.
        assert len(responses) == stats["counters"]["submitted"]
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        for r in responses:
            if r["outcome"] in ("rejected", "shed", "failed"):
                assert r["reason"]
        assert stats["autoscaler"] is not None  # scaling was really on
        # Pool fully gone within a grace period.
        deadline = time.monotonic() + 60
        pending = list(workers)
        while pending and time.monotonic() < deadline:
            pending = [p for p in pending if self._alive(p)]
            time.sleep(0.05)
        assert not pending, f"orphan workers survived: {pending}"
        # Every lease released: the next front door over this store can
        # lead any identity at once.
        assert store.is_dir()
        assert not list(store.rglob("*.lease"))

"""Tests for the overload-safe simulation service (repro.service):
admission queue ordering and fairness, circuit-breaker state machine,
the degradation ladder, deterministic burst breakdowns, graceful drain,
and breaker trip/recovery against a real (crashing) worker pool."""

import multiprocessing

import pytest

from repro.harness.errors import (
    FAILURE_CRASH,
    OUTCOME_DEGRADED,
    OUTCOME_FAILED,
    OUTCOME_FULL,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
)
from repro.service.admission import (
    AdmissionQueue,
    REASON_CLIENT_QUOTA,
    REASON_QUEUE_FULL,
)
from repro.service.breaker import (
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.service.loadgen import BurstSpec, breakdown, generate_burst
from repro.service.request import (
    QueueEntry,
    SimRequest,
    SimResponse,
    TIER_FAST,
    TIER_FULL,
    TIER_NONE,
)
from repro.service.router import ShardedService
from repro.service.service import ServiceConfig, SimulationService

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-pool service tests rely on fork workers",
)


def req(rid="r1", **over):
    base = dict(request_id=rid, quanta=1, warmup_quanta=0, quantum_cycles=128)
    base.update(over)
    return SimRequest(**base)


def entry(rid="r1", seq=0, enqueued_at=0.0, **over):
    return QueueEntry(request=req(rid, **over), seq=seq, enqueued_at=enqueued_at)


def ok_runner(request):
    return {"ipc": 1.0, "switches": 0, "benign_probability": 0.5}


def fail_runner(request):
    raise RuntimeError("engine down")


def inline_service(full_runner=ok_runner, **cfg_over):
    cfg = dict(workers=0, queue_capacity=4)
    cfg.update(cfg_over)
    return SimulationService(ServiceConfig(**cfg), full_runner=full_runner,
                             fast_runner=ok_runner)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# -- admission queue -----------------------------------------------------------
class TestAdmissionQueue:
    def test_bounded_capacity_refuses_with_reason(self):
        q = AdmissionQueue(capacity=2, per_client_cap=2)
        assert q.offer(entry("a", seq=1)) is None
        assert q.offer(entry("b", seq=2)) is None
        assert q.offer(entry("c", seq=3)) == REASON_QUEUE_FULL

    def test_per_client_cap_stops_a_hot_client(self):
        q = AdmissionQueue(capacity=8, per_client_cap=2)
        assert q.offer(entry("a", seq=1, client="hog")) is None
        assert q.offer(entry("b", seq=2, client="hog")) is None
        assert q.offer(entry("c", seq=3, client="hog")) == REASON_CLIENT_QUOTA
        assert q.offer(entry("d", seq=4, client="other")) is None

    def test_priority_then_edf_then_fifo_order(self):
        q = AdmissionQueue(capacity=8, per_client_cap=8)
        lo = entry("lo", seq=1, priority=0)
        hi = entry("hi", seq=2, priority=5)
        urgent = QueueEntry(request=req("urgent", priority=5), seq=3,
                            enqueued_at=0.0, expires_at=10.0)
        for e in (lo, hi, urgent):
            assert q.offer(e) is None
        order = [q.take(now=0.0)[0].request.request_id for _ in range(3)]
        assert order == ["urgent", "hi", "lo"]

    def test_expired_entries_shed_at_dequeue(self):
        q = AdmissionQueue(capacity=8, per_client_cap=8)
        dead = QueueEntry(request=req("dead", priority=9), seq=1,
                          enqueued_at=0.0, expires_at=1.0)
        live = entry("live", seq=2)
        q.offer(dead)
        q.offer(live)
        got, shed = q.take(now=5.0)
        assert got.request.request_id == "live"
        assert [e.request.request_id for e in shed] == ["dead"]

    def test_shed_releases_the_client_slot(self):
        q = AdmissionQueue(capacity=8, per_client_cap=1)
        dead = QueueEntry(request=req("dead", client="c"), seq=1,
                          enqueued_at=0.0, expires_at=1.0)
        q.offer(dead)
        assert q.offer(entry("next", seq=2, client="c")) == REASON_CLIENT_QUOTA
        assert q.shed_expired(now=5.0) == [dead]
        assert q.offer(entry("next", seq=3, client="c")) is None

    def test_take_if_leaves_non_matching_queued(self):
        q = AdmissionQueue(capacity=8, per_client_cap=8)
        q.offer(entry("keep", seq=1, degradable=False, priority=9))
        q.offer(entry("pick", seq=2, degradable=True))
        got, _ = q.take_if(0.0, lambda e: e.request.degradable)
        assert got.request.request_id == "pick"
        assert q.depth == 1
        assert q.take(0.0)[0].request.request_id == "keep"


# -- circuit breaker -----------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        b = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        b.record_failure(FAILURE_CRASH)
        b.record_failure(FAILURE_CRASH)
        b.record_success()  # resets the streak
        b.record_failure(FAILURE_CRASH)
        b.record_failure(FAILURE_CRASH)
        assert b.state == STATE_CLOSED
        b.record_failure(FAILURE_CRASH)
        assert b.state == STATE_OPEN
        assert not b.allow_full()

    def test_half_open_admits_exactly_one_canary(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure("timeout")
        clock.t = 6.0
        assert b.state == STATE_HALF_OPEN
        assert b.allow_full() is True  # the canary
        assert b.allow_full() is False  # nothing else until it resolves

    def test_canary_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure("crash")
        clock.t = 2.0
        assert b.allow_full()
        b.record_success()
        assert b.state == STATE_CLOSED
        assert b.allow_full()

    def test_canary_failure_reopens_with_reason(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure("crash")
        clock.t = 2.0
        assert b.allow_full()
        b.record_failure("timeout")
        assert b.state == STATE_OPEN
        assert b.transitions[-1]["reason"] == "probe-failed:timeout"

    def test_cancel_probe_releases_the_canary_slot(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure("crash")
        clock.t = 2.0
        assert b.allow_full()
        b.cancel_probe()
        assert b.allow_full()  # slot was given back

    def test_every_transition_is_recorded(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure("crash")
        clock.t = 2.0
        assert b.allow_full()
        b.record_success()
        hops = [(t["from"], t["to"]) for t in b.transitions]
        assert hops == [(STATE_CLOSED, STATE_OPEN),
                        (STATE_OPEN, STATE_HALF_OPEN),
                        (STATE_HALF_OPEN, STATE_CLOSED)]


# -- response invariants -------------------------------------------------------
class TestResponseInvariants:
    def test_fast_tier_must_be_marked_degraded(self):
        with pytest.raises(ValueError):
            SimResponse(request_id="r", client="c", outcome=OUTCOME_DEGRADED,
                        tier=TIER_FAST, degraded=False, reason="x")

    def test_fast_tier_must_name_a_reason(self):
        with pytest.raises(ValueError):
            SimResponse(request_id="r", client="c", outcome=OUTCOME_DEGRADED,
                        tier=TIER_FAST, degraded=True, reason="")

    def test_full_outcome_requires_full_tier(self):
        with pytest.raises(ValueError):
            SimResponse(request_id="r", client="c", outcome=OUTCOME_FULL,
                        tier=TIER_NONE)


# -- the degradation ladder (inline full tier) ---------------------------------
class TestDegradationLadder:
    def test_admitted_request_served_full_fidelity(self):
        svc = inline_service()
        assert svc.submit(req("r1")) is None
        svc.run_until_idle(timeout_s=10)
        (resp,) = svc.take_completed()
        assert resp.outcome == OUTCOME_FULL
        assert resp.tier == TIER_FULL
        assert not resp.degraded

    def test_queue_overflow_degrades_eligible_requests(self):
        svc = inline_service(queue_capacity=2, per_client_cap=2)
        svc.paused = True
        for i in range(4):
            svc.submit(req(f"r{i}", client=f"c{i}"))
        overflow = svc.take_completed()
        assert len(overflow) == 2
        assert all(r.outcome == OUTCOME_DEGRADED and r.degraded for r in overflow)
        assert all(r.reason == "queue-pressure" for r in overflow)

    def test_queue_overflow_rejects_non_degradable(self):
        svc = inline_service(queue_capacity=1, per_client_cap=1)
        svc.paused = True
        svc.submit(req("a", client="c1"))
        resp = svc.submit(req("b", client="c2", degradable=False))
        assert resp.outcome == OUTCOME_REJECTED
        assert resp.tier == TIER_NONE
        assert resp.reason == REASON_QUEUE_FULL

    def test_client_quota_names_its_reason(self):
        svc = inline_service(queue_capacity=8, per_client_cap=1)
        svc.paused = True
        svc.submit(req("a", client="hog"))
        resp = svc.submit(req("b", client="hog", degradable=False))
        assert resp.outcome == OUTCOME_REJECTED
        assert resp.reason == REASON_CLIENT_QUOTA

    def test_invalid_request_rejected_not_crashed(self):
        svc = inline_service()
        resp = svc.submit(req("bad", quanta=-1))
        assert resp.outcome == OUTCOME_REJECTED
        assert resp.reason.startswith("invalid-request")

    def test_expired_deadline_is_shed_at_dequeue(self):
        svc = inline_service()
        svc.paused = True
        svc.submit(req("doomed", deadline_s=0.0))
        svc.paused = False
        svc.run_until_idle(timeout_s=10)
        (resp,) = svc.take_completed()
        assert resp.outcome == OUTCOME_SHED
        assert resp.reason == "deadline-expired"

    def test_full_tier_failure_falls_back_to_fast(self):
        svc = inline_service(full_runner=fail_runner)
        svc.submit(req("r1"))
        svc.run_until_idle(timeout_s=10)
        (resp,) = svc.take_completed()
        assert resp.outcome == OUTCOME_DEGRADED
        assert resp.reason.startswith("full-tier-failed:")

    def test_degraded_answer_models_the_requested_threads(self):
        """The fast tier simulates the machine the request names: a 4-thread
        mix05 request gets the 4-thread model's answer, not the 8-thread
        one."""
        from repro.core.thresholds import ThresholdConfig
        from repro.fastmodel.model import fast_run_adts
        from repro.workloads.mixes import get_mix

        svc = SimulationService(ServiceConfig(workers=0, queue_capacity=4),
                                full_runner=fail_runner)
        svc.submit(req("r1", mix="mix05", num_threads=4, seed=7, quanta=2,
                       quantum_cycles=512))
        svc.run_until_idle(timeout_s=10)
        (resp,) = svc.take_completed()
        assert resp.outcome == OUTCOME_DEGRADED
        apps = get_mix("mix05").subset(4, seed=7)
        want = fast_run_adts(apps, "type3", ThresholdConfig(ipc_threshold=2.0),
                             quanta=2, seed=7, quantum_cycles=512)
        assert resp.payload["ipc"] == want.ipc

    def test_full_tier_failure_fails_non_degradable(self):
        svc = inline_service(full_runner=fail_runner)
        svc.submit(req("r1", degradable=False))
        svc.run_until_idle(timeout_s=10)
        (resp,) = svc.take_completed()
        assert resp.outcome == OUTCOME_FAILED
        assert resp.tier == TIER_NONE

    def test_open_breaker_degrades_at_submit(self):
        svc = inline_service(full_runner=fail_runner, breaker_failures=1,
                             breaker_cooldown_s=3600.0)
        svc.submit(req("trip"))
        svc.run_until_idle(timeout_s=10)
        assert svc.breaker.state == STATE_OPEN
        resp = svc.submit(req("next"))
        assert resp.outcome == OUTCOME_DEGRADED
        assert resp.reason == "breaker-open"
        hard = svc.submit(req("strict", degradable=False))
        assert hard.outcome == OUTCOME_REJECTED
        assert hard.reason == "breaker-open"

    def test_breaker_recovery_restores_full_fidelity(self):
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("still down")
            return ok_runner(request)

        clock = FakeClock()
        svc = SimulationService(
            ServiceConfig(workers=0, queue_capacity=4, breaker_failures=2,
                          breaker_cooldown_s=5.0),
            full_runner=flaky, fast_runner=ok_runner, clock=clock)
        svc.submit(req("f1"))
        svc.submit(req("f2"))
        svc.run_until_idle(timeout_s=10)
        assert svc.breaker.state == STATE_OPEN
        clock.t = 6.0  # cooldown elapses -> half-open
        svc.submit(req("probe"))
        svc.run_until_idle(timeout_s=10)
        assert svc.breaker.state == STATE_CLOSED
        probe = [r for r in svc.take_completed()
                 if r.request_id == "probe"][0]
        assert probe.outcome == OUTCOME_FULL

    def test_store_hit_short_circuits(self, tmp_path):
        """The front door's result store is the ladder's first rung: a
        stored answer is served at submit and never reaches a shard."""
        def front():
            return ShardedService(ServiceConfig(workers=0, queue_capacity=4),
                                  store=tmp_path / "rs", full_runner=ok_runner,
                                  fast_runner=ok_runner)

        first = front()
        first.submit(req("r1", seed=7))
        first.run_until_idle(timeout_s=10)
        first.drain(1.0)
        second = front()
        resp = second.submit(req("r2", seed=7))  # same sim, new request id
        assert resp is not None and resp.outcome == OUTCOME_FULL
        assert resp.payload == ok_runner(None)
        counters = second.stats()["counters"]
        assert counters["front_store_hits"] == 1
        assert counters["submitted"] == 0  # the shard never saw it
        second.drain(1.0)

    def test_draining_service_rejects_new_work(self):
        svc = inline_service()
        svc.drain(0.1)
        resp = svc.submit(req("late"))
        assert resp.outcome == OUTCOME_REJECTED
        assert resp.reason == "draining"


# -- deterministic overload demo ----------------------------------------------
class TestOverloadDemo:
    def _run(self, workers=0):
        svc = SimulationService(ServiceConfig(workers=workers,
                                              queue_capacity=16))
        svc.paused = True
        for r in generate_burst(BurstSpec(requests=200, seed=0, quanta=1,
                                          quantum_cycles=128)):
            svc.submit(r)
        svc.paused = False
        svc.run_until_idle(timeout_s=300)
        svc.drain(30.0)
        return breakdown(svc.take_completed())

    def test_burst_breakdown_conserves_and_reproduces(self):
        bd = self._run()
        assert bd["total"] == 200  # no silent drops
        assert sum(bd["outcomes"].values()) == 200
        assert bd["outcomes"].get("degraded", 0) >= 1
        assert bd["outcomes"].get("rejected", 0) >= 1
        assert bd["outcomes"].get("shed", 0) >= 1
        assert bd == self._run()  # same seed, same service: same breakdown

    @fork_only
    def test_breakdown_matches_across_worker_counts(self):
        # Admission decisions depend only on queue state (the burst is
        # submitted paused), so the supervised pool must reproduce the
        # inline breakdown exactly.
        assert self._run(workers=0) == self._run(workers=2)


# -- graceful drain ------------------------------------------------------------
class TestDrain:
    def test_drain_answers_everything_queued(self):
        svc = inline_service(queue_capacity=8, per_client_cap=8)
        svc.paused = True
        for i in range(5):
            svc.submit(req(f"r{i}", client=f"c{i}"))
        stats = svc.drain(5.0)
        responses = svc.take_completed()
        assert len(responses) == 5
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        assert svc.counters["submitted"] == 5

    def test_drain_deadline_sheds_the_remainder(self):
        svc = inline_service(queue_capacity=8, per_client_cap=8)
        svc.paused = True
        for i in range(3):
            svc.submit(req(f"r{i}", client=f"c{i}"))
        svc.paused = True  # never let the pump dispatch
        clock_out = svc.drain(0.0)
        # paused is force-cleared by drain, but with a zero budget the loop
        # exits immediately and everything queued is shed with a reason.
        responses = svc.take_completed()
        sheds = [r for r in responses if r.outcome == OUTCOME_SHED]
        assert clock_out["queue_depth"] == 0
        assert len(responses) == 3
        assert all(r.reason in ("drain-deadline", "deadline-expired")
                   for r in sheds)
        assert len(sheds) >= 1

    @fork_only
    def test_drain_finishes_inflight_pool_work(self):
        svc = SimulationService(ServiceConfig(workers=2, queue_capacity=8))
        for i in range(3):
            svc.submit(req(f"r{i}", client=f"c{i}"))
        stats = svc.drain(60.0)
        responses = svc.take_completed()
        assert len(responses) == 3
        assert all(r.outcome == OUTCOME_FULL for r in responses)
        assert stats["counters"]["drain_killed"] == 0


# -- breaker against a real crashing worker pool -------------------------------
@fork_only
class TestBreakerChaos:
    def test_breaker_trips_on_real_crashes_and_recovers(self):
        """service_breaker_trip_rate=1.0 makes every full attempt SIGKILL
        its worker: the breaker must open after the configured streak, the
        backlog must drain degraded, and — after cooldown with the fault
        removed — a canary must close the breaker again."""
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(service_breaker_trip_rate=1.0, seed=3)
        svc = SimulationService(ServiceConfig(
            workers=2, queue_capacity=8, per_client_cap=8,
            breaker_failures=2, breaker_cooldown_s=0.2,
            fault_plan=plan, run_timeout_s=60.0))
        svc.paused = True
        for i in range(4):
            svc.submit(req(f"r{i}", client=f"c{i}"))
        svc.paused = False
        svc.run_until_idle(timeout_s=120)
        responses = svc.take_completed()
        assert len(responses) == 4
        assert all(r.outcome == OUTCOME_DEGRADED for r in responses)
        opened = [t for t in svc.breaker.transitions if t["to"] == STATE_OPEN]
        assert opened and "crash" in opened[0]["reason"]
        assert svc.counters["full_failures"] >= 2
        # Chaos off; past the cooldown a canary probe restores full service.
        svc._fault_rng = None
        import time as _time
        _time.sleep(0.25)
        svc.submit(req("probe", client="p"))
        svc.run_until_idle(timeout_s=120)
        (probe,) = svc.take_completed()
        assert probe.outcome == OUTCOME_FULL
        assert svc.breaker.state == STATE_CLOSED
        closed = [t for t in svc.breaker.transitions
                  if t["to"] == STATE_CLOSED]
        assert closed and closed[-1]["reason"] == "probe-succeeded"
        svc.drain(5.0)

    def test_overload_fault_forces_the_ladder(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(service_overload_rate=1.0, seed=0)
        svc = SimulationService(
            ServiceConfig(workers=0, queue_capacity=64, fault_plan=plan),
            full_runner=ok_runner, fast_runner=ok_runner)
        soft = svc.submit(req("soft"))
        assert soft.outcome == OUTCOME_DEGRADED
        assert soft.reason == "fault-overload"
        hard = svc.submit(req("hard", degradable=False))
        assert hard.outcome == OUTCOME_REJECTED
        assert hard.reason == "fault-overload"

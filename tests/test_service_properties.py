"""Property-based service tests: under ANY mix of priorities, deadlines,
client identities, degradability flags, queue capacities, and full-tier
failure patterns, the service must (a) answer every submitted request
exactly once — admitted + degraded + shed + rejected + failed conserves the
request count, no silent drops, no duplicates — and (b) never let a
fast-model answer masquerade as full fidelity: every fast-tier response is
explicitly ``degraded: true`` with a non-empty reason, and every full
outcome came from the full tier."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.errors import (
    OUTCOME_DEGRADED,
    OUTCOME_FULL,
    OUTCOME_KINDS,
)
from repro.service.request import SimRequest, TIER_FAST, TIER_FULL, TIER_KINDS
from repro.service.service import ServiceConfig, SimulationService

_REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(["alice", "bob", "carol"]),   # client
        st.integers(0, 3),                            # priority
        st.sampled_from([None, 0.0, 60.0]),           # deadline_s
        st.booleans(),                                # degradable
    ),
    min_size=1,
    max_size=40,
)

_FAIL_EVERY = st.sampled_from([0, 2, 3])  # 0 = full tier never fails


def _fake_payload(request):
    return {"ipc": 1.0, "switches": 0, "benign_probability": 0.5}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(reqs=_REQUESTS, capacity=st.integers(1, 8),
       per_client=st.integers(1, 8), fail_every=_FAIL_EVERY,
       pause_submit=st.booleans())
def test_every_request_answered_exactly_once_and_tiers_honest(
        reqs, capacity, per_client, fail_every, pause_submit):
    calls = {"n": 0}

    def full_runner(request):
        calls["n"] += 1
        if fail_every and calls["n"] % fail_every == 0:
            raise RuntimeError("synthetic full-tier failure")
        return _fake_payload(request)

    svc = SimulationService(
        ServiceConfig(workers=0, queue_capacity=capacity,
                      per_client_cap=per_client, breaker_failures=2,
                      breaker_cooldown_s=1e-6),
        full_runner=full_runner, fast_runner=_fake_payload)
    svc.paused = pause_submit
    ids = []
    for i, (client, priority, deadline_s, degradable) in enumerate(reqs):
        rid = f"p{i:03d}"
        ids.append(rid)
        svc.submit(SimRequest(request_id=rid, client=client,
                              priority=priority, deadline_s=deadline_s,
                              degradable=degradable, quanta=1,
                              warmup_quanta=0, quantum_cycles=128))
    svc.paused = False
    svc.run_until_idle(timeout_s=30)
    svc.drain(5.0)
    responses = svc.take_completed()

    # (a) conservation: one response per request, no drops, no duplicates.
    assert sorted(r.request_id for r in responses) == sorted(ids)
    c = svc.counters
    accounted = (c["completed_full"] + c["degraded"] + c["rejected"]
                 + c["shed"] + c["failed"])
    assert accounted == c["submitted"] == len(reqs)

    # (b) honesty: tiers and outcomes from the closed taxonomies; every
    # fast-tier answer marked degraded with a reason; full means full.
    for r in responses:
        assert r.outcome in OUTCOME_KINDS
        assert r.tier in TIER_KINDS
        if r.tier == TIER_FAST:
            assert r.degraded is True
            assert r.reason
            assert r.outcome == OUTCOME_DEGRADED
        if r.outcome == OUTCOME_FULL:
            assert r.tier == TIER_FULL
            assert r.degraded is False
            assert r.payload is not None

    # Degradable requests never fail outright when the fast tier works.
    degradable_ids = {f"p{i:03d}" for i, (_, _, _, d) in enumerate(reqs) if d}
    for r in responses:
        if r.request_id in degradable_ids:
            assert r.outcome != "failed"


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(reqs=_REQUESTS, capacity=st.integers(1, 8))
def test_paused_burst_breakdown_is_deterministic(reqs, capacity):
    """Admission decisions depend only on queue state: submitting the same
    burst to two identically configured paused services yields identical
    per-request dispositions."""

    def run_once():
        svc = SimulationService(
            ServiceConfig(workers=0, queue_capacity=capacity),
            full_runner=_fake_payload, fast_runner=_fake_payload)
        svc.paused = True
        for i, (client, priority, deadline_s, degradable) in enumerate(reqs):
            svc.submit(SimRequest(request_id=f"p{i:03d}", client=client,
                                  priority=priority, deadline_s=deadline_s,
                                  degradable=degradable, quanta=1,
                                  warmup_quanta=0, quantum_cycles=128))
        svc.paused = False
        svc.run_until_idle(timeout_s=30)
        svc.drain(5.0)
        return sorted((r.request_id, r.outcome, r.tier, r.reason)
                      for r in svc.take_completed())

    assert run_once() == run_once()

"""Shadow verification: the silent-corruption defense under test.

Headline guarantees:

* **Zero false positives** (the property suite): with no faults injected
  and a deterministic engine, verification at ANY sampling rate over ANY
  traffic never quarantines an entry and never parks an identity — a
  healthy system is never punished for being verified.
* **Every injected corruption is caught**: with the front door flipping a
  counter bit in every served result (``corrupt_rate=1.0``) and a 100%
  sampling rate, every tainted digest is detected, its store entry is
  evicted into a ``*.divergent`` evidence document, and best-2-of-3
  re-execution restores the clean value — a second replay of the same
  traffic re-serves nothing corrupt.
* Non-answers (shed / draining shadows) are ``inconclusive`` — never
  grounds for quarantine.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import stored_integrity
from repro.faults.plan import FaultPlan
from repro.service.identity import request_identity
from repro.service.loadgen import VirtualClock
from repro.service.request import SimRequest
from repro.service.resultstore import (
    INTEGRITY_UNVERIFIED,
    INTEGRITY_VERIFIED,
    ResultStore,
)
from repro.service.router import ShardedService
from repro.service.service import ServiceConfig
from repro.service.verify import corrupt_payload, payload_digest


def req(i, *, seed=3, client="c", **kw):
    defaults = dict(
        request_id=f"r{i}", client=client, mix="mix05", mode="adts",
        quanta=5, warmup_quanta=1, seed=seed,
    )
    defaults.update(kw)
    return SimRequest(**defaults)


def ok_full(request):
    return {"ipc": 1.0 + request.seed, "switches": request.seed}


def make_front(tmp_path, clock, *, shards=2, verify_rate=1.0, plan=None,
               full_runner=ok_full, **front_kw):
    cfg = ServiceConfig(workers=0, queue_capacity=64, fault_plan=plan)
    return ShardedService(
        cfg,
        shards=shards,
        store=tmp_path / "rs",
        full_runner=full_runner,
        fast_runner=lambda r: {"ipc": 0.5},
        clock=clock,
        verify_rate=verify_rate,
        **front_kw,
    )


def settle(front, clock, budget_s=120.0):
    deadline = clock() + budget_s
    while front.pending > 0:
        front.pump()
        clock.advance(0.01)
        assert clock() < deadline, "front-door failed to go idle (hang)"
    return front.take_completed()


class TestDigestAndCorruption:
    def test_payload_digest_is_order_insensitive_and_value_sensitive(self):
        a = {"ipc": 1.5, "switches": 3}
        b = {"switches": 3, "ipc": 1.5}
        assert payload_digest(a) == payload_digest(b)
        assert payload_digest(a) != payload_digest({"ipc": 1.5, "switches": 4})

    def test_corrupt_payload_changes_digest_but_stays_finite(self):
        payload = {"ipc": 1.25, "switches": 7}
        bad = corrupt_payload(payload, random.Random(0))
        assert bad is not None
        assert payload_digest(bad) != payload_digest(payload)
        assert payload == {"ipc": 1.25, "switches": 7}  # input untouched
        changed = [k for k in payload if bad[k] != payload[k]]
        assert len(changed) == 1
        assert bad[changed[0]] == bad[changed[0]]  # not NaN
        assert abs(bad[changed[0]]) != float("inf")

    def test_corrupt_payload_returns_none_without_numeric_fields(self):
        assert corrupt_payload({"name": "mix05", "flag": True},
                               random.Random(0)) is None


class TestVerificationLifecycle:
    def test_clean_results_are_marked_verified(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        for i in range(4):
            front.submit(req(i, seed=i))
        settle(front, clock)
        assert front.verifier.counters["verified"] == 4
        assert front.verifier.counters["divergent"] == 0
        for i in range(4):
            digest = request_identity(req(i, seed=i))
            assert stored_integrity(front.store, digest) == INTEGRITY_VERIFIED

    def test_sampling_is_seeded_and_partial(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock, verify_rate=0.5)
        for i in range(20):
            front.submit(req(i, seed=i))
        settle(front, clock)
        sampled = front.verifier.counters["sampled"]
        assert 0 < sampled < 20
        # Same seed, same draw: a second identical run samples identically.
        clock2 = VirtualClock()
        front2 = make_front(Path(tempfile.mkdtemp()), clock2, verify_rate=0.5)
        for i in range(20):
            front2.submit(req(i, seed=i))
        settle(front2, clock2)
        assert front2.verifier.counters["sampled"] == sampled

    def test_divergence_quarantines_restores_and_never_reserves(self, tmp_path):
        plan = FaultPlan.chaos_day(seed=0, rate=0.0, corrupt_rate=1.0)
        clock = VirtualClock()
        front = make_front(tmp_path, clock, plan=plan)
        for i in range(5):
            front.submit(req(i, seed=i))
        settle(front, clock)
        c = front.verifier.counters
        assert front.counters["results_corrupted"] == 5
        assert c["divergent"] == 5 and c["restored"] == 5
        evidence = list((tmp_path / "rs" / "shard-00").glob("*.divergent"))
        assert len(evidence) == 5
        audit = front.verification_audit()
        assert audit["ok"] and audit["caught"] == 5 and not audit["uncaught"]
        # The restored entries serve the CLEAN value: replay the same
        # traffic against a fresh front door over the same store.
        clock2 = VirtualClock()
        cfg = ServiceConfig(workers=0)
        replay = ShardedService(
            cfg, shards=2, store=tmp_path / "rs",
            full_runner=ok_full, clock=clock2,
        )
        for i in range(5):
            replay.submit(req(i, seed=i))
        out = settle(replay, clock2)
        assert replay.counters["store_hits"] == 5
        for r in out:
            i = int(r.request_id[1:])
            assert r.payload == ok_full(req(i, seed=i))

    def test_divergent_store_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        fields = {"mix": "mix05", "seed": 1}
        from repro.harness.runner import fields_digest

        digest = fields_digest(fields)
        store.put(fields, {"ipc": 1.0})
        assert store.get(digest) == {"ipc": 1.0}
        path = store.quarantine_divergent(
            fields,
            primary_payload={"ipc": 1.0}, shadow_payload={"ipc": 2.0},
        )
        assert path is not None and path.exists()
        assert store.get(digest) is None  # evicted: future requests re-run
        assert store.counters["divergent_quarantines"] == 1

    def test_inconclusive_shadow_never_quarantines(self, tmp_path):
        # Drain immediately after submit: shadow probes dispatched into
        # draining shards come back refused — inconclusive, not divergent.
        plan = FaultPlan.chaos_day(seed=0, rate=0.0, corrupt_rate=1.0)
        clock = VirtualClock()
        front = make_front(tmp_path, clock, plan=plan)
        front.submit(req(0))
        front.drain(5.0)
        c = front.verifier.counters
        assert c["divergent"] + c["inconclusive"] + c["verified"] == c["sampled"]
        # Whatever was corrupted but not caught (shadow refused) is
        # reported by the audit as uncaught — the gate stays honest.
        audit = front.verification_audit()
        assert audit["ok"] == (not audit["uncaught"])


_TRAFFIC = st.lists(
    st.tuples(
        st.integers(0, 5),       # seed (identity diversity)
        st.sampled_from(["a", "b"]),
        st.booleans(),           # degradable
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(traffic=_TRAFFIC,
       verify_rate=st.sampled_from([0.25, 0.5, 1.0]),
       shards=st.integers(1, 3),
       dlq_threshold=st.sampled_from([0, 2]),
       seed=st.integers(0, 3))
def test_zero_fault_runs_never_quarantine_or_park(
        traffic, verify_rate, shards, dlq_threshold, seed):
    """False-positive safety: no faults -> no quarantines, no parkings.

    A deterministic engine plus a healthy store means every shadow
    re-execution must agree with its primary, whatever the sampling rate,
    shard count, traffic mix or DLQ threshold.
    """
    with tempfile.TemporaryDirectory() as tmp:
        clock = VirtualClock()
        front = ShardedService(
            ServiceConfig(workers=0, queue_capacity=64),
            shards=shards,
            store=Path(tmp) / "rs",
            full_runner=ok_full,
            fast_runner=lambda r: {"ipc": 0.5},
            clock=clock,
            verify_rate=verify_rate,
            verify_seed=seed,
            dlq_threshold=dlq_threshold,
        )
        for i, (rseed, client, degradable) in enumerate(traffic):
            front.submit(req(i, seed=rseed, client=client,
                             degradable=degradable))
        deadline = clock() + 120.0
        while front.pending > 0:
            front.pump()
            clock.advance(0.01)
            assert clock() < deadline
        front.drain(5.0)
        c = front.verifier.counters
        assert c["divergent"] == 0 and c["unresolved"] == 0
        assert front.verifier.quarantined == []
        counters = front.stats()["counters"]
        assert counters["dlq_parked"] == 0
        assert counters["front_dlq_refused"] == 0
        if front.dlq is not None:
            assert len(front.dlq) == 0
        summary = front.store.integrity_summary()
        assert summary["divergent_live"] == 0
        assert summary["divergent_evidence"] == 0
        assert summary["invalid"] == 0
        audit = front.verification_audit()
        assert audit["ok"] and audit["uncaught"] == []

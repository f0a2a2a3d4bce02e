"""The poison-pill dead-letter queue: strikes, parking, refusal, ops.

Headline guarantees:

* an identity that keeps killing the full engine is parked after the
  configured number of strikes — gathered across retries AND shards —
  with a durable artifact recording the refusal reason and the full
  attempt history;
* from the moment of parking, the front door answers that identity with
  an immediate machine-readable ``dlq-parked:<kind>`` refusal — no
  worker is burned, no waiter hangs;
* parking survives restarts (the next front door re-adopts the entries),
  and ``repro dlq list|retry|purge`` manages the queue from the CLI.
"""

import json

import pytest

from repro.harness.cli import main
from repro.service import (
    DeadLetterQueue,
    ServiceConfig,
    ShardedService,
    SimRequest,
    VirtualClock,
)
from repro.service.identity import request_identity


def req(i, *, seed=13, client="c", **kw):
    defaults = dict(
        request_id=f"p{i}", client=client, mix="mix05", mode="adts",
        quanta=5, warmup_quanta=1, seed=seed, degradable=False,
    )
    defaults.update(kw)
    return SimRequest(**defaults)


def poison_runner(request):
    if request.seed == 13:
        raise RuntimeError("deterministic engine bug")
    return {"ipc": 1.0 + request.seed, "switches": request.seed}


def make_front(tmp_path, clock, *, threshold=3, shards=2, **front_kw):
    return ShardedService(
        ServiceConfig(workers=0, queue_capacity=64, max_attempts=1,
                      breaker_failures=10),
        shards=shards,
        store=tmp_path / "rs",
        full_runner=poison_runner,
        fast_runner=poison_runner,
        clock=clock,
        dlq_threshold=threshold,
        **front_kw,
    )


def settle(front, clock, budget_s=60.0):
    deadline = clock() + budget_s
    while front.pending > 0:
        front.pump()
        clock.advance(0.01)
        assert clock() < deadline, "front-door failed to go idle (hang)"
    return front.take_completed()


class TestParking:
    def test_threshold_parks_and_refuses_machine_readably(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        responses = []
        for i in range(6):
            front.submit(req(i))
            responses.extend(settle(front, clock))
        outcomes = [(r.outcome, r.reason) for r in responses]
        assert outcomes[:3] == [
            ("failed", "exception: RuntimeError('deterministic engine bug')")
        ] * 3
        for outcome, reason in outcomes[3:]:
            assert outcome == "rejected"
            assert reason == "dlq-parked:exception"
        assert front.counters["dlq_strikes"] == 3
        assert front.stats()["counters"]["dlq_parked"] == 1
        assert front.counters["dlq_refused"] == 3
        entry = front.dlq.entries()[0]
        assert entry["identity"] == request_identity(req(0))
        assert entry["reason"] == "exception"
        assert len(entry["attempts"]) >= 3
        kinds = {a["kind"] for a in entry["attempts"] if "kind" in a}
        assert kinds == {"exception"}

    def test_strikes_accumulate_across_shards(self, tmp_path):
        """Coalesced waiters promote onto the NEXT shard after a failed
        leader, so the strike history shows more than one shard — the
        evidence that the identity, not one sick host, is at fault."""
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        front.paused = True
        for i in range(4):  # one leader + three waiters, same identity
            front.submit(req(i))
        front.paused = False
        responses = settle(front, clock)
        assert front.stats()["counters"]["dlq_parked"] == 1
        entry = front.dlq.entries()[0]
        shards_hit = {a["shard"] for a in entry["attempts"] if "shard" in a}
        assert len(shards_hit) > 1
        # The waiter left at parking time was refused, not stranded.
        assert len(responses) == 4
        assert {r.outcome for r in responses} == {"failed"}
        parked_refusals = [r for r in responses
                           if r.reason == "coalesced:dlq-parked:exception"]
        assert parked_refusals

    def test_healthy_identities_are_never_struck(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        for i in range(5):
            front.submit(req(i, seed=i))  # seed != 13: healthy
        out = settle(front, clock)
        assert {r.outcome for r in out} == {"full"}
        assert front.counters["dlq_strikes"] == 0
        assert len(front.dlq) == 0

    def test_parking_survives_restart(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        for i in range(3):
            front.submit(req(i))
            settle(front, clock)
        assert front.stats()["counters"]["dlq_parked"] == 1
        # A fresh front door over the same store re-adopts the entry.
        clock2 = VirtualClock()
        front2 = make_front(tmp_path, clock2)
        front2.submit(req(9))
        out = settle(front2, clock2)
        assert out[0].outcome == "rejected"
        assert out[0].reason == "dlq-parked:exception"
        assert front2.counters["simulations"] == 0

    def test_retry_unparks_for_the_next_submission(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        for i in range(3):
            front.submit(req(i))
            settle(front, clock)
        digest = request_identity(req(0))
        assert front.dlq.retry(digest) is True
        assert front.dlq.retry(digest) is False  # idempotent miss
        front.submit(req(9))
        out = settle(front, clock)
        assert out[0].outcome == "failed"  # simulated again (and failed)
        assert front.counters["simulations"] == 4


class TestQueueObject:
    def test_in_memory_queue_without_root(self):
        dlq = DeadLetterQueue(None)
        assert dlq.park("d1", {"mix": "mix05"}, "crash", [{"kind": "crash"}])
        assert not dlq.park("d1", {}, "crash", [])  # already parked
        assert dlq.is_parked("d1")
        assert dlq.refusal_reason("d1") == "dlq-parked:crash"
        assert dlq.refusal_reason("unknown") == "dlq-parked"
        assert dlq.purge() == 1
        assert len(dlq) == 0

    def test_entries_are_digest_sorted(self, tmp_path):
        dlq = DeadLetterQueue(tmp_path / "dlq")
        for d in ("bbb", "aaa", "ccc"):
            dlq.park(d, {}, "timeout", [])
        assert [e["identity"] for e in dlq.entries()] == ["aaa", "bbb", "ccc"]

    def test_unreadable_entry_is_skipped_on_load(self, tmp_path):
        root = tmp_path / "dlq"
        dlq = DeadLetterQueue(root)
        dlq.park("good", {}, "crash", [])
        (root / "bad.json").write_text("{not json", encoding="utf-8")
        again = DeadLetterQueue(root)
        assert again.is_parked("good")
        assert len(again) == 1


class TestCli:
    def _park_one(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        for i in range(3):
            front.submit(req(i))
            settle(front, clock)
        return request_identity(req(0))

    def test_list_retry_purge_roundtrip(self, tmp_path, capsys):
        digest = self._park_one(tmp_path)
        store = str(tmp_path / "rs")
        assert main(["dlq", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert digest in out and "exception" in out

        assert main(["dlq", "list", "--store", store, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0]["identity"] == digest

        assert main(["dlq", "retry", digest, "--store", store]) == 0
        capsys.readouterr()
        assert main(["dlq", "retry", digest, "--store", store]) == 1
        capsys.readouterr()

        self._park_one(tmp_path)  # park it again (fresh tree state is fine)
        assert main(["dlq", "purge", "--store", store]) == 0
        assert "purged 1" in capsys.readouterr().out
        assert main(["dlq", "list", "--store", store]) == 0
        assert "dlq empty" in capsys.readouterr().out

    def test_retry_without_digest_is_usage_error(self, tmp_path, capsys):
        assert main(["dlq", "retry", "--store", str(tmp_path / "rs")]) == 2

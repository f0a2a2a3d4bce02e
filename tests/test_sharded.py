"""The sharded front-door: identity routing, request coalescing with
crash-safe leases, leader failure → follower promotion, the durable
result store behind replay, startup lease sweeps, remote-leader groups,
and the serve-loop integration. The headline guarantees under test:

* one simulation per identity, no matter how many requests ask for it;
* every coalesced waiter is answered or refused within its deadline —
  a dead leader never strands its followers;
* replaying the same traffic twice against the store yields zero
  re-simulations on the second pass, byte-identical answers.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from conftest import stored_integrity
from repro.harness.runner import run_fields
from repro.service.autoscale import AutoscalerConfig
from repro.service.breaker import STATE_CLOSED
from repro.service.identity import request_identity
from repro.service.loadgen import TimedRequest, VirtualClock, replay_traffic
from repro.service.request import SimRequest
from repro.service.resultstore import ResultStore
from repro.service.router import REMOTE_WAIT_S, ShardedService
from repro.service.server import ServeLoop, health
from repro.service.service import ServiceConfig


def req(i, *, seed=3, client="c", **kw):
    defaults = dict(
        request_id=f"r{i}", client=client, mix="mix05", mode="adts",
        quanta=5, warmup_quanta=1, seed=seed,
    )
    defaults.update(kw)
    return SimRequest(**defaults)


def ok_full(request):
    return {"ipc": 1.0 + request.seed, "switches": request.seed}


def ok_fast(request):
    return {"ipc": 0.5}


def make_front(tmp_path, clock, *, shards=2, store=True, full_runner=ok_full,
               **cfg_kw):
    defaults = dict(workers=0, queue_capacity=64)
    defaults.update(cfg_kw)
    return ShardedService(
        ServiceConfig(**defaults),
        shards=shards,
        store=(tmp_path / "rs") if store else None,
        full_runner=full_runner,
        fast_runner=ok_fast,
        clock=clock,
    )


def settle(front, clock, budget_s=60.0):
    """Pump to idle under the virtual clock; fails the test on a hang."""
    deadline = clock() + budget_s
    while front.pending > 0:
        front.pump()
        clock.advance(0.01)
        assert clock() < deadline, "front-door failed to go idle (hang)"
    return front.take_completed()


class TestCoalescing:
    def test_one_simulation_fans_out_byte_identical(self, tmp_path):
        clock = VirtualClock()
        calls = []

        def counting_full(request):
            calls.append(request.request_id)
            return ok_full(request)

        front = make_front(tmp_path, clock, full_runner=counting_full)
        for i in range(6):
            front.submit(req(i))  # identical identity
        front.submit(req(99, seed=4))  # distinct identity
        responses = settle(front, clock)
        assert len(calls) == 2  # one per identity, not per request
        assert len(responses) == 7
        same = [r for r in responses if r.request_id != "r99"]
        assert all(r.outcome == "full" for r in same)
        payloads = {json.dumps(r.payload, sort_keys=True) for r in same}
        assert len(payloads) == 1  # byte-identical fan-out
        assert front.counters["coalesced_waiters"] == 5
        assert front.counters["simulations"] == 2

    def test_waiter_deadline_never_hangs(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        front.paused = True  # hold the leader in the queue
        front.submit(req(0))
        front.submit(req(1, deadline_s=0.05))  # coalesced, tight deadline
        clock.advance(0.1)
        front.pump()
        shed = [r for r in front.take_completed() if r.request_id == "r1"]
        assert [r.outcome for r in shed] == ["shed"]
        assert shed[0].reason == "deadline-expired"
        front.paused = False
        rest = settle(front, clock)
        assert [r.request_id for r in rest] == ["r0"]
        assert rest[0].outcome == "full"

    def test_failed_leader_promotes_follower(self, tmp_path):
        clock = VirtualClock()
        failures = {"left": 1}

        def flaky_full(request):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("synthetic leader crash")
            return ok_full(request)

        front = make_front(tmp_path, clock, full_runner=flaky_full)
        for i in range(4):
            # Non-degradable: a failed leader must fail (and hand off),
            # not fall back onto the fast model.
            front.submit(req(i, degradable=False))
        responses = {r.request_id: r for r in settle(front, clock)}
        assert len(responses) == 4
        # The leader's own request reports the failure...
        assert responses["r0"].outcome == "failed"
        assert responses["r0"].reason
        # ...and a promoted follower answers everyone else in full.
        for rid in ("r1", "r2", "r3"):
            assert responses[rid].outcome == "full", responses[rid]
        assert front.counters["promotions"] == 1

    def test_drain_refuses_stranded_waiters_with_reasons(self, tmp_path):
        clock = VirtualClock()

        def always_failing(request):
            raise RuntimeError("engine down")

        front = make_front(tmp_path, clock, full_runner=always_failing,
                           drain_deadline_s=5.0)
        for i in range(5):
            front.submit(req(i))
        clock.auto_advance_s = 0.01
        stats = front.drain()
        responses = front.take_completed()
        assert len(responses) == 5  # conservation: all answered
        assert all(r.reason for r in responses)  # machine-readable refusals
        assert stats["inflight"] == 0
        assert stats["queue_depth"] == 0
        assert front.pending == 0


class TestSimulationCount:
    def test_leads_answered_at_shard_admission_are_not_simulations(
        self, tmp_path
    ):
        """``simulations`` counts leaders a shard admitted to its full
        tier; a lead the shard degrades at admission never simulates."""
        clock = VirtualClock()
        front = make_front(tmp_path, clock, shards=1, queue_capacity=8,
                           degrade_at_depth=1)
        for i in range(4):
            # Distinct identities; the first leader holds the queue at
            # depth 1 until the next pump, so the rest degrade at once.
            front.submit(req(i, seed=i))
        responses = {r.request_id: r for r in settle(front, clock)}
        assert responses["r0"].outcome == "full"
        for rid in ("r1", "r2", "r3"):
            assert responses[rid].reason == "queue-pressure"
        assert front.counters["simulations"] == 1
        assert front.stats()["counters"]["front_simulations"] == 1
        assert front.stats()["counters"]["admitted"] == 1


class TestLeaderCrashRealWorkers:
    def test_killed_leader_still_answers_every_waiter(self, tmp_path):
        """SIGKILL the leader mid-simulation (seeded worker-crash fault on
        attempt 1); the shard's retry answers leader and waiters alike —
        nobody hangs, everybody gets the full payload."""
        import time

        front = ShardedService(
            ServiceConfig(
                workers=2, queue_capacity=16, max_attempts=2,
                run_timeout_s=30.0, heartbeat_timeout_s=5.0,
            ),
            shards=2,
            store=tmp_path / "rs",
        )
        try:
            # rate=1.0: the first quantum boundary of attempt 1 kills the
            # worker process; the retry strips worker faults and finishes.
            for i in range(4):
                front.submit(req(i, quanta=2, fault_kinds=("worker",),
                                 fault_rate=1.0))
            deadline = time.monotonic() + 60.0
            while front.pending > 0:
                front.pump()
                assert time.monotonic() < deadline, "waiters hung"
                time.sleep(0.02)
            responses = front.take_completed()
        finally:
            front.drain(5.0)
        assert len(responses) == 4
        assert all(r.outcome == "full" for r in responses), [
            (r.request_id, r.outcome, r.reason) for r in responses
        ]
        payloads = {json.dumps(r.payload, sort_keys=True) for r in responses}
        assert len(payloads) == 1
        counters = front.stats()["counters"]
        assert counters["full_failures"] >= 1  # the crash really happened
        assert counters["front_coalesced_waiters"] == 3


class TestResultStoreServing:
    def test_second_replay_is_pure_store_hits(self, tmp_path):
        events = [
            TimedRequest(at_s=i * 0.01, request=req(i, seed=i % 3))
            for i in range(12)
        ]
        first = {}
        for attempt in ("cold", "warm"):
            clock = VirtualClock()
            front = make_front(tmp_path, clock, full_runner=ok_full)
            responses = replay_traffic(front, events, clock, tick_s=0.05)
            clock.auto_advance_s = 0.05
            front.drain()
            responses.extend(front.take_completed())
            assert len(responses) == len(events)
            assert all(r.outcome == "full" for r in responses)
            if attempt == "cold":
                assert front.counters["simulations"] == 3  # seeds 0,1,2
                first = {r.request_id: json.dumps(r.payload, sort_keys=True)
                         for r in responses}
            else:
                # Zero re-simulations: everything from the store, and
                # byte-identical to the first pass.
                assert front.counters["simulations"] == 0
                assert front.counters["store_hits"] == len(events)
                for r in responses:
                    assert json.dumps(r.payload, sort_keys=True) == first[
                        r.request_id
                    ]

    def test_store_stays_warm_across_shard_counts(self, tmp_path):
        """A store written behind two shards answers every repeat behind
        three: every entry lives in the one segment, whatever the shard
        count."""
        clock = VirtualClock()
        front = make_front(tmp_path, clock, shards=2)
        for i in range(8):
            front.submit(req(i, seed=i))
        first = {r.request_id: r.payload for r in settle(front, clock)}
        front.drain()
        warm = make_front(tmp_path, clock, shards=3)
        for i in range(8):
            warm.submit(req(i, seed=i))
        responses = settle(warm, clock)
        assert {r.request_id: r.payload for r in responses} == first
        assert warm.counters["store_hits"] == 8
        assert warm.counters["simulations"] == 0
        assert [p.name for p in (tmp_path / "rs").glob("shard-*")] == ["shard-00"]

    def test_corrupt_entry_is_resimulated_not_served(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        front.submit(req(0))
        settle(front, clock)
        digest = request_identity(req(0))
        path = front.store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        calls = []

        def counting_full(request):
            calls.append(request.request_id)
            return ok_full(request)

        front2 = make_front(tmp_path, clock, full_runner=counting_full)
        front2.submit(req(1))  # same identity, damaged entry
        responses = settle(front2, clock)
        assert [r.outcome for r in responses] == ["full"]
        assert calls == ["r1"]  # re-simulated
        assert front2.counters["simulations"] == 1
        assert front2.store.counters["corrupt_misses"] == 1
        assert front2.store.get(digest) is not None  # healed by the re-run


class TestLeases:
    def test_startup_sweep_breaks_dead_leaders(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        store = ResultStore(tmp_path / "rs")
        digest = request_identity(req(0))
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path(digest).write_text(str(proc.pid))
        clock = VirtualClock()
        front = make_front(tmp_path, clock)  # same root: sweeps at startup
        assert front.store.counters["stale_leases_broken"] == 1
        front.submit(req(0))  # digest is leadable again, not remote
        responses = settle(front, clock)
        assert [r.outcome for r in responses] == ["full"]
        assert front.counters["remote_leaders"] == 0

    def test_remote_leader_result_served_from_store(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        digest = request_identity(req(0))
        # A live foreign process (our parent) holds the lease.
        front.store.lease_dir.mkdir(parents=True, exist_ok=True)
        front.store.lease_path(digest).write_text(str(os.getppid()))
        front.submit(req(0))
        front.submit(req(1))
        front.pump()
        assert front.counters["remote_leaders"] == 1
        assert front.counters["simulations"] == 0
        # The remote leader publishes its result...
        other = ResultStore(tmp_path / "rs")
        other.put(run_fields(req(0).run_spec()), {"ipc": 9.0})
        responses = settle(front, clock)
        assert len(responses) == 2
        assert all(r.outcome == "full" for r in responses)
        assert all(r.payload == {"ipc": 9.0} for r in responses)
        assert front.counters["simulations"] == 0  # never duplicated the work

    def test_stalled_remote_leader_is_broken_and_promoted(self, tmp_path):
        clock = VirtualClock()
        front = ShardedService(
            ServiceConfig(workers=0),
            shards=2,
            store=tmp_path / "rs",
            full_runner=ok_full,
            fast_runner=ok_fast,
            clock=clock,
        )
        digest = request_identity(req(0))
        front.store.lease_dir.mkdir(parents=True, exist_ok=True)
        front.store.lease_path(digest).write_text(str(os.getppid()))
        front.submit(req(0))
        clock.advance(REMOTE_WAIT_S + 1.0)  # no result published in time
        responses = settle(front, clock)
        assert [r.outcome for r in responses] == ["full"]
        assert front.counters["promotions"] == 1
        assert front.store.counters["lease_breaks"] == 1
        assert front.counters["simulations"] == 1  # promoted locally


class TestServeLoopIntegration:
    def test_stats_op_and_drained_stats(self, tmp_path):
        """``stats`` answers with the counter map; ``summary`` is an
        unknown op; ``drained`` carries the final stats only."""
        lines = [
            json.dumps({"op": "submit", "request": {
                "request_id": f"r{i}", "mix": "mix05", "mode": "adts",
                "quanta": 4, "warmup_quanta": 1, "seed": 1}})
            for i in range(3)
        ] + [json.dumps({"op": "stats"}), json.dumps({"op": "summary"})]
        feed = tmp_path / "requests.jsonl"
        feed.write_text("\n".join(lines) + "\n")
        outfile = io.StringIO()
        front = make_front(tmp_path, VirtualClock())
        front.clock = __import__("time").monotonic  # serve paces real time
        for shard in front.shards:
            shard.clock = front.clock
        with feed.open() as infile:
            assert ServeLoop(front, infile=infile, outfile=outfile).run() == 0
        events = [json.loads(l) for l in outfile.getvalue().splitlines()]
        ready = next(e for e in events if e["event"] == "ready")
        assert ready["shards"] == 2
        snapshot = next(e for e in events if e["event"] == "stats")["stats"]
        assert len(snapshot["shards"]) == 2
        assert snapshot["counters"]["front_submitted"] == 3
        errors = [e for e in events if e["event"] == "error"]
        assert [e["detail"] for e in errors] == ["unknown op 'summary'"]
        assert not any(e["event"] == "summary" for e in events)
        responses = [e for e in events if e["event"] == "response"]
        assert len(responses) == 3
        drained = next(e for e in events if e["event"] == "drained")
        assert set(drained) == {"event", "stats"}
        counters = drained["stats"]["counters"]
        assert counters["front_submitted"] == 3
        assert counters["front_answered"] == 3
        assert (
            counters["front_coalesced_waiters"] + counters["front_store_hits"]
            == 2
        )  # 3 identical requests, one simulation

    @pytest.mark.parametrize("blocking", [True, False])
    def test_input_is_left_in_the_mode_it_came_in(self, tmp_path, blocking):
        """The loop polls its input non-blocking; a shell or pipeline that
        shares the descriptor gets it back as it was."""
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b'{"op": "stats"}\n{"op": "shutdown"}\n')
        os.set_blocking(read_fd, blocking)
        front = make_front(tmp_path, VirtualClock())
        with os.fdopen(read_fd, "rb") as infile:
            loop = ServeLoop(front, infile=infile, outfile=io.StringIO())
            assert loop.run() == 0
            assert os.get_blocking(read_fd) is blocking
        os.close(write_fd)

    def test_input_without_a_file_descriptor_is_refused(self, tmp_path):
        """Input is polled by file descriptor (a reader thread would hold
        the stdin lock across the worker fork), so an fd-less file-like
        is refused up front instead of never being read."""
        front = make_front(tmp_path, VirtualClock())
        with pytest.raises(ValueError, match="file descriptor"):
            ServeLoop(front, infile=io.StringIO('{"op": "stats"}\n'),
                      outfile=io.StringIO())


class TestStatsSurface:
    def test_stats_aggregate_and_per_shard_views(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock, shards=3)
        for i in range(6):
            front.submit(req(i, seed=i))
        settle(front, clock)
        stats = front.stats()
        assert stats["queue_depth"] == 0
        assert stats["inflight"] == 0
        assert len(stats["shards"]) == 3
        assert stats["counters"]["front_submitted"] == 6
        assert stats["counters"]["submitted"] == sum(
            s["counters"]["submitted"] for s in stats["shards"]
        )
        assert stats["breaker"]["state"] == "closed"
        assert stats["counters"]["store_puts"] == 6
        headline = health(stats)
        assert headline["ok"] and headline["breaker_state"] == "closed"

    def test_counter_keys_do_not_depend_on_configuration(self, tmp_path):
        """A store, a verifier and a DLQ add values, never names: the
        counter map of a default front door has the same keys, at zero."""
        plain = ShardedService(ServiceConfig(workers=0))
        full = ShardedService(ServiceConfig(workers=0), shards=2,
                              store=tmp_path / "rs", verify_rate=1.0,
                              dlq_threshold=3)
        counters = plain.stats()["counters"]
        assert set(counters) == set(full.stats()["counters"])
        parts = [k for k in counters if k.startswith(("store_", "verify_", "dlq_"))]
        assert parts and all(counters[k] == 0 for k in parts)

    def test_one_shard_keys_cover_a_shard_service(self):
        """Every key a shard reports in ``stats()`` — nested ones too — is
        also on the front door, so the one front door drops none of the
        telemetry a bare shard had; the serve loop's ``health`` is its headline."""
        from repro.service.service import SimulationService

        cfg = ServiceConfig(workers=0,
                            autoscaler=AutoscalerConfig(min_workers=1,
                                                        max_workers=2))
        clock = VirtualClock()
        shard = SimulationService(cfg, full_runner=ok_full,
                                  fast_runner=ok_fast, clock=clock)
        front = ShardedService(cfg, full_runner=ok_full, fast_runner=ok_fast,
                               clock=clock)
        for svc in (shard, front):
            svc.submit(req(0))
            svc.run_until_idle()

        def keys(view, prefix=""):
            out = set()
            for k, v in view.items():
                out.add(prefix + k)
                if isinstance(v, dict):
                    out |= keys(v, f"{prefix}{k}.")
            return out

        assert keys(shard.stats()) - keys(front.stats()) == set()
        stats = front.stats()
        assert set(health(stats)) == {
            "ok", "degraded_mode", "breaker_state", "queue_depth", "inflight"}
        assert stats["breaker"] == shard.stats()["breaker"]
        assert stats["workers"] == []
        assert health(stats)["breaker_state"] == "closed"

    def test_autoscaler_events_merge_in_time_order_with_shard_tags(self):
        clock = VirtualClock()
        front = ShardedService(
            ServiceConfig(workers=0, queue_capacity=64, degrade_at_depth=64,
                          autoscaler=AutoscalerConfig(min_workers=1,
                                                      max_workers=3,
                                                      cooldown_s=0.0)),
            shards=2, full_runner=ok_full, fast_runner=ok_fast, clock=clock,
        )
        front.paused = True  # let both shards' queues build pressure
        for i in range(40):
            front.submit(req(i, seed=i))
        for _ in range(8):
            clock.advance(0.1)
            front.pump()
        front.paused = False
        settle(front, clock)
        scaler = front.stats()["autoscaler"]
        events = scaler["events"]
        assert {e["shard"] for e in events} == {0, 1}
        assert [e["at_s"] for e in events] == sorted(e["at_s"] for e in events)
        per_shard = [s.autoscaler.summary() for s in front.shards]
        assert len(events) == sum(len(a["events"]) for a in per_shard)
        assert scaler["miss_rate_window"] == max(
            a["miss_rate_window"] for a in per_shard)


class TestOneShard:
    def test_warm_restart_answers_from_the_store(self, tmp_path):
        """A lone shard keeps no answers of its own: a fresh front door
        over the same result store serves the earlier answers as store
        hits, without simulating."""
        clock = VirtualClock()
        front = make_front(tmp_path, clock, shards=1)
        for i in range(3):
            front.submit(req(i, seed=i))
        first = {r.request_id: r.payload for r in settle(front, clock)}
        front.drain()
        assert not list((tmp_path / "rs").rglob("*.lease"))
        calls = []

        def counting_full(request):
            calls.append(request.request_id)
            return ok_full(request)

        warm = make_front(tmp_path, clock, shards=1, full_runner=counting_full)
        for i in range(3):
            warm.submit(req(i, seed=i))
        responses = settle(warm, clock)
        assert calls == []
        assert all(r.outcome == "full" for r in responses)
        assert {r.request_id: r.payload for r in responses} == first
        counters = warm.stats()["counters"]
        assert counters["front_store_hits"] == 3
        assert counters["front_simulations"] == 0


class TestOneIdentityRule:
    """The result store is the only cache of finished answers, keyed by
    the full request identity: a faulted request and its clean twin are
    two simulations, and every verification probe re-executes."""

    @staticmethod
    def twin(rid, **kw):
        return SimRequest(request_id=rid, mix="mix05", num_threads=4,
                          quanta=4, quantum_cycles=512, warmup_quanta=0,
                          seed=11, heuristic="type3", threshold=2.0, **kw)

    def test_faulted_and_clean_twins_never_share_an_answer(self, tmp_path):
        from repro.harness.runner import run_adts

        faulted = self.twin("faulted", fault_kinds=("policy", "hangs"),
                            fault_rate=0.5)
        clean = self.twin("clean")
        payloads = {}
        for attempt in ("cold", "warm"):
            front = ShardedService(ServiceConfig(workers=0),
                                   store=tmp_path / "rs")
            for request in (faulted, clean):  # the clean twin asks second
                front.submit(request)
                front.run_until_idle(timeout_s=120)
            by_id = {r.request_id: r for r in front.take_completed()}
            assert all(r.outcome == "full" for r in by_id.values()), by_id
            counters = front.stats()["counters"]
            if attempt == "cold":
                assert counters["front_simulations"] == 2
                payloads = {rid: r.payload for rid, r in by_id.items()}
            else:
                assert counters["front_simulations"] == 0
                assert counters["front_store_hits"] == 2
                assert {rid: r.payload for rid, r in by_id.items()} == payloads
            front.drain(1.0)
        run = run_adts(clean.run_config(), heuristic="type3")
        assert payloads["clean"] == {
            "ipc": run.ipc,
            "switches": run.scheduler["switches"],
            "benign_probability": run.scheduler["benign_probability"],
        }
        assert payloads["faulted"] != payloads["clean"]

    def test_every_probe_reaches_a_full_tier(self, tmp_path):
        """Three executions disagree, so the entry stays evicted; the
        re-request simulates and is verified again. Every lead and every
        probe — two verifications of one identity — is a simulation."""
        calls = []

        def drifting_full(request):
            calls.append(request.request_id)
            return {"ipc": float(min(len(calls), 3))}

        clock = VirtualClock()
        front = ShardedService(
            ServiceConfig(workers=0, queue_capacity=64), shards=2,
            store=tmp_path / "rs", full_runner=drifting_full,
            fast_runner=ok_fast, clock=clock, verify_rate=1.0,
        )
        front.submit(req(0))
        settle(front, clock)
        digest = request_identity(req(0))
        assert front.verifier.counters["unresolved"] == 1
        assert front.store.get(digest) is None  # quarantined, not restored
        front.submit(req(1))  # the same identity, asked again
        responses = settle(front, clock)
        assert [r.outcome for r in responses] == ["full"]
        counters = front.stats()["counters"]
        probes = [rid for rid in calls if rid.startswith("verify-")]
        # Two shadows and one authority, each simulated on a shard.
        assert len(probes) == (
            counters["verify_sampled"] + counters["verify_divergent"]
        ) == 3
        assert counters["verify_verified"] == 1
        assert counters["front_simulations"] == 2
        assert len(calls) == counters["completed_full"] == 5
        assert stored_integrity(front.store, digest) == "verified"


class TestAdmissionValidation:
    """Every field the full tier reads is checked at admission: a
    malformed request is refused with ``invalid-request``, never admitted
    to fail a worker and count against the breaker."""

    MALFORMED = [
        ("mix", "mix99"),
        ("num_threads", 9),
        ("heuristic", "type9"),
        ("threshold", -1.0),
        ("seed", -1),
        ("fault_kinds", ("bogus",)),
        ("num_threads", "4"),  # wrong type: a TypeError, still refused
    ]

    @staticmethod
    def small(i, **kw):
        return req(i, quanta=1, warmup_quanta=1, quantum_cycles=128, **kw)

    @pytest.mark.parametrize("field,value", MALFORMED)
    def test_malformed_field_is_refused_at_admission(self, field, value):
        front = ShardedService(ServiceConfig(workers=0))
        resp = front.submit(self.small(0, **{field: value}))
        assert resp is not None and resp.outcome == "rejected"
        assert resp.reason.startswith("invalid-request: "), resp.reason
        assert front.pending == 0
        counters = front.stats()["counters"]
        assert counters["front_simulations"] == 0
        assert counters["full_failures"] == 0
        assert front.shards[0].breaker.state == STATE_CLOSED

    def test_malformed_requests_leave_the_breaker_closed(self):
        """One client's malformed requests must not open the breaker and
        degrade another client's well-formed request."""
        front = ShardedService(ServiceConfig(workers=0))
        for i, (field, value) in enumerate(self.MALFORMED):
            front.submit(self.small(i, client="bad", **{field: value}))
        assert front.submit(self.small("ok", client="good")) is None
        front.run_until_idle(timeout_s=60)
        by_id = {r.request_id: r for r in front.take_completed()}
        assert by_id["rok"].outcome == "full", by_id["rok"]
        assert all(by_id[f"r{i}"].outcome == "rejected"
                   for i in range(len(self.MALFORMED)))
        assert front.shards[0].breaker.state == STATE_CLOSED
        assert front.stats()["counters"]["full_failures"] == 0


class TestDuplicateRequestIds:
    """A request_id is unique while it is owed a response. Leaders, shard
    queues and verifier probes are keyed by it, so a second
    live request under the same id is refused (``rejected``,
    ``duplicate-request-id``) without touching the first one's
    bookkeeping; once answered, the id is free again."""

    @staticmethod
    def _twins():
        """Two ``r1`` requests for two identities (seeds 1 and 2)."""
        base = dict(request_id="r1", mix="mix05", num_threads=4, quanta=2,
                    quantum_cycles=256, warmup_quanta=0)
        return SimRequest(seed=1, **base), SimRequest(seed=2, **base)

    @staticmethod
    def _refused(response):
        assert response is not None, "a duplicate live id was admitted"
        assert response.request_id == "r1"
        assert (response.outcome, response.reason) == (
            "rejected", "duplicate-request-id")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_second_live_request_with_one_id_is_refused(self, tmp_path, shards):
        from repro.service.service import _default_full_runner

        front = ShardedService(ServiceConfig(workers=0), shards=shards,
                               store=tmp_path / "rs")
        first, second = self._twins()
        assert front.submit(first) is None
        self._refused(front.submit(second))
        front.run_until_idle(timeout_s=5)
        assert front.pending == 0
        (refusal, answer) = front.take_completed()
        self._refused(refusal)
        assert answer.outcome == "full" and answer.request_id == "r1"
        assert answer.payload == _default_full_runner(first)
        assert round(answer.payload["ipc"], 4) == 0.6934
        assert front.store.get(request_identity(first)) == answer.payload
        assert front.store.get(request_identity(second)) is None
        counters = front.stats()["counters"]
        assert counters["front_simulations"] == 1
        assert counters["front_rejected"] == 1

    def test_duplicate_of_a_coalesced_waiter_is_refused(self, tmp_path):
        clock = VirtualClock()
        front = make_front(tmp_path, clock)
        front.paused = True  # hold the leader in its shard's queue
        assert front.submit(req(0)) is None  # leader
        assert front.submit(req(1)) is None  # coalesced waiter
        for dup in (req(1, seed=4), req(1), req(0, seed=4)):
            response = front.submit(dup)
            assert response is not None, dup
            assert (response.outcome, response.reason) == (
                "rejected", "duplicate-request-id")
        front.paused = False
        answers = [r for r in settle(front, clock) if r.outcome == "full"]
        assert sorted(r.request_id for r in answers) == ["r0", "r1"]
        assert all(r.payload == ok_full(req(0)) for r in answers)
        assert front.counters["simulations"] == 1

    def test_id_is_free_again_once_answered(self, tmp_path):
        front = ShardedService(ServiceConfig(workers=0), store=tmp_path / "rs")
        first, second = self._twins()
        assert front.submit(first) is None
        self._refused(front.submit(second))
        self._refused(front.submit(second))  # a refusal frees nothing
        front.run_until_idle(timeout_s=5)
        assert [r.outcome for r in front.take_completed()] == [
            "rejected", "rejected", "full"]
        assert front.submit(second) is None  # answered: r1 is free again
        front.run_until_idle(timeout_s=5)
        (answer,) = front.take_completed()
        assert answer.outcome == "full"
        assert round(answer.payload["ipc"], 4) == 0.4922
        assert front.stats()["counters"]["front_simulations"] == 2

    def test_live_verifier_probe_id_is_refused(self, tmp_path):
        clock = VirtualClock()
        front = ShardedService(
            ServiceConfig(workers=0, queue_capacity=64), shards=2,
            store=tmp_path / "rs", full_runner=ok_full, fast_runner=ok_fast,
            clock=clock, verify_rate=1.0,
        )
        assert front.submit(req(0)) is None
        front.pump()  # the leader answers; its shadow probe is queued
        assert front.verifier.inflight == 1
        (probe_id,) = front.verifier._jobs
        response = front.submit(req(9, request_id=probe_id))
        assert response is not None
        assert (response.outcome, response.reason) == (
            "rejected", "duplicate-request-id")
        settle(front, clock)
        assert front.verifier.inflight == 0


class TestFaultedTwins:
    """Identity is the run's: a disk-only request is its clean twin's
    simulation (disk faults never change a result), a worker-faulted
    request is not."""

    def test_disk_only_request_is_a_store_hit_on_its_clean_twin(self, tmp_path):
        clock = VirtualClock()
        calls = []

        def counting_full(request):
            calls.append(request.request_id)
            return ok_full(request)

        front = make_front(tmp_path, clock, full_runner=counting_full)
        front.submit(req(0))
        (clean,) = settle(front, clock)
        front.submit(req(1, fault_kinds=("disk",), fault_rate=0.5))
        (disk,) = settle(front, clock)
        assert calls == ["r0"]
        assert front.counters["store_hits"] == 1
        assert (disk.outcome, disk.payload) == ("full", clean.payload)

    def test_worker_faulted_strikes_never_park_the_clean_twin(self, tmp_path):
        clock = VirtualClock()

        def crashing_full(request):
            if "worker" in request.fault_kinds:
                raise RuntimeError("injected worker fault")
            return ok_full(request)

        front = ShardedService(
            ServiceConfig(workers=0, queue_capacity=64, max_attempts=1,
                          breaker_failures=10),
            shards=2, store=tmp_path / "rs", full_runner=crashing_full,
            fast_runner=ok_fast, clock=clock, dlq_threshold=2,
        )
        for i in range(3):
            front.submit(req(i, fault_kinds=("worker",), degradable=False))
            settle(front, clock)
        faulted = request_identity(req(0, fault_kinds=("worker",)))
        assert front.dlq.is_parked(faulted)
        front.submit(req(9, degradable=False))
        (answer,) = settle(front, clock)
        assert answer.outcome == "full"
        assert not front.dlq.is_parked(request_identity(req(9)))
        assert len(front.dlq) == 1

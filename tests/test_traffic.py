"""Traffic models: shaped generation, recording round-trip, replay engines,
and the extended `breakdown()` accounting."""

import hashlib
import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.service.loadgen import (
    BurstSpec,
    TimedRequest,
    TrafficSpec,
    VirtualClock,
    breakdown,
    generate_burst,
    generate_traffic,
    load_recording,
    replay_session,
    replay_traffic,
    save_recording,
    traffic_fingerprint,
)
from repro.service.request import SimRequest, SimResponse
from repro.service.router import ShardedService
from repro.service.service import ServiceConfig, SimulationService


def ok_full(request):
    return {"ipc": 1.0}


def ok_fast(request):
    return {"ipc": 0.9}


class TestGenerateTraffic:
    def test_same_seed_same_stream(self):
        spec = TrafficSpec(shape="diurnal", requests=60, duration_s=20.0, seed=9)
        a, b = generate_traffic(spec), generate_traffic(spec)
        assert traffic_fingerprint(a) == traffic_fingerprint(b)
        assert [e.to_json() for e in a] == [e.to_json() for e in b]

    def test_different_seed_different_stream(self):
        base = TrafficSpec(requests=60, duration_s=20.0)
        a = generate_traffic(base)
        b = generate_traffic(TrafficSpec(requests=60, duration_s=20.0, seed=1))
        assert traffic_fingerprint(a) != traffic_fingerprint(b)

    @pytest.mark.parametrize("shape", ("uniform", "diurnal", "bursty", "ramp"))
    def test_arrivals_sorted_and_bounded(self, shape):
        spec = TrafficSpec(shape=shape, requests=80, duration_s=10.0, seed=3)
        events = generate_traffic(spec)
        times = [e.at_s for e in events]
        assert len(events) == 80
        assert times == sorted(times)
        assert all(0.0 <= t <= 10.0 for t in times)
        assert len({e.request.request_id for e in events}) == 80

    def test_diurnal_peaks_mid_period(self):
        spec = TrafficSpec(shape="diurnal", requests=400, duration_s=30.0, seed=0)
        times = np.array([e.at_s for e in generate_traffic(spec)])
        # Trough at the edges, peak mid-period: at PEAK_TO_TROUGH 4 the
        # middle third holds about half the arrivals, far more than a
        # uniform share.
        mid = np.sum((times > 10.0) & (times < 20.0))
        assert mid > 400 * 0.45

    def test_ramp_loads_the_tail(self):
        spec = TrafficSpec(shape="ramp", requests=400, duration_s=30.0, seed=0)
        # At PEAK_TO_TROUGH 4 the second half holds 65% of the arrivals.
        times = np.array([e.at_s for e in generate_traffic(spec)])
        assert np.sum(times > 15.0) > np.sum(times <= 15.0) * 1.5

    def test_bursty_is_actually_bursty(self):
        spec = TrafficSpec(shape="bursty", requests=200, duration_s=30.0, seed=0)
        times = np.array([e.at_s for e in generate_traffic(spec)])
        gaps = np.diff(times)
        # Heavy-tailed trains: the biggest quiet gap dwarfs the median gap.
        assert gaps.max() > 20 * max(np.median(gaps), 1e-9)

    def test_expired_fraction_means_zero_deadline(self):
        spec = TrafficSpec(
            requests=300, duration_s=10.0, seed=5, expired_fraction=0.3,
            deadline_fraction=0.0,
        )
        events = generate_traffic(spec)
        expired = [e for e in events if e.request.deadline_s == 0.0]
        assert 0.15 * 300 < len(expired) < 0.45 * 300
        for e in events:
            assert e.request.deadline_s in (None, 0.0)

    def test_fault_fraction_tags_requests(self):
        spec = TrafficSpec(
            requests=200, duration_s=10.0, seed=2,
            fault_fraction=0.5, fault_kinds=("counters", "dt"),
        )
        events = generate_traffic(spec)
        faulted = [e for e in events if e.request.fault_kinds]
        assert 0.3 * 200 < len(faulted) < 0.7 * 200
        assert all(e.request.fault_kinds == ("counters", "dt") for e in faulted)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(shape="square-wave")
        with pytest.raises(ValueError):
            TrafficSpec(requests=0)
        with pytest.raises(ValueError):
            TrafficSpec(duration_s=0.0)
        with pytest.raises(ValueError):
            TrafficSpec(deadline_fraction=1.5)


class TestSeededStreamsPinned:
    """Seeded streams are pinned across commits, not only within one run.
    A change to a shape, a draw or the order of draws moves these digests;
    a deliberate change updates them in the same commit."""

    @pytest.mark.parametrize("shape, digest", [
        ("uniform", "4b5941fc12d7ae800063bf03001f39eec7e1e887d7a56fa2c8517dc336a38841"),
        ("diurnal", "86622f0b6c473d836f038472b3750e3bd4574556dbf9d70141cd30f525926563"),
        ("bursty", "23764533239f3a6d72375eafad4e8d590af5251a988244aca80ba64be957bcaa"),
        ("ramp", "2df25f2950d51d2f6825e298355361ef9b9926d571ab02c6632a71e0823c5778"),
    ])
    def test_traffic_fingerprint(self, shape, digest):
        events = generate_traffic(TrafficSpec(shape=shape, seed=0))
        assert traffic_fingerprint(events) == digest

    def test_burst_requests(self):
        requests = generate_burst(BurstSpec())
        blob = json.dumps([r.to_json() for r in requests], sort_keys=True)
        assert len(requests) == 200
        assert (hashlib.sha256(blob.encode("utf-8")).hexdigest()
                == "a7f8d08af9e5b17eebb165b053b9321302a24eba61a4a87efec3427d021cb543")


class TestRequestRoundTrip:
    def test_sim_request_to_json_round_trips(self):
        req = SimRequest(
            request_id="r1", client="alice", priority=2, deadline_s=1.5,
            fault_kinds=("counters",), degradable=False,
        )
        assert SimRequest.from_json(req.to_json()) == req
        json.dumps(req.to_json())  # JSON-serializable as-is

    def test_timed_request_round_trips(self):
        t = TimedRequest(at_s=3.25, request=SimRequest(request_id="r2"))
        assert TimedRequest.from_json(t.to_json()) == t


class TestRecording:
    def test_round_trip_and_fsck_healthy(self, tmp_path):
        events = generate_traffic(TrafficSpec(requests=30, duration_s=5.0, seed=7))
        path = tmp_path / "rec.json"
        save_recording(path, events, meta={"note": "test"})
        loaded = load_recording(path)
        assert loaded == sorted(events, key=lambda e: (e.at_s, e.request.request_id))
        assert traffic_fingerprint(loaded) == traffic_fingerprint(events)
        from repro.storage.fsck import fsck_tree

        report = fsck_tree(tmp_path, repair=False)
        assert report.counts == {"healthy": 1}

    def test_tampered_recording_refuses_to_load(self, tmp_path):
        path = tmp_path / "rec.json"
        save_recording(path, generate_traffic(TrafficSpec(requests=5, seed=0)))
        doc = json.loads(path.read_text())
        doc["requests"][0]["at_s"] = 99.0  # bit-flip stand-in
        path.write_text(json.dumps(doc))
        from repro.storage.errors import ArtifactError

        with pytest.raises((ArtifactError, ValueError)):
            load_recording(path)

    def test_wrong_format_refused(self, tmp_path):
        from repro.storage.artifact import embed_json_artifact
        from repro.storage.atomic import atomic_write_bytes

        path = tmp_path / "other.json"
        doc = embed_json_artifact({"kind": "other"}, "bench-report", 1)
        atomic_write_bytes(path, json.dumps(doc).encode())
        from repro.storage.errors import ArtifactError

        with pytest.raises((ArtifactError, ValueError)):
            load_recording(path)


class TestReplay:
    def _service(self, **kw):
        clock = VirtualClock()
        cfg = ServiceConfig(workers=0, queue_capacity=8, **kw)
        return SimulationService(
            cfg, full_runner=ok_full, fast_runner=ok_fast, clock=clock
        ), clock

    def test_replay_answers_everything_deterministically(self):
        events = generate_traffic(
            TrafficSpec(shape="bursty", requests=50, duration_s=6.0, seed=4)
        )
        results = []
        for _ in range(2):
            service, clock = self._service()
            responses, _ = replay_session(service, events, clock,
                                          drain_deadline_s=5.0)
            assert len(responses) == 50
            assert {r.request_id for r in responses} == {
                e.request.request_id for e in events
            }
            results.append(breakdown(responses))
        assert results[0] == results[1]

    def test_expired_requests_are_shed_not_dropped(self):
        events = generate_traffic(
            TrafficSpec(requests=40, duration_s=4.0, seed=3,
                        expired_fraction=0.5, deadline_fraction=0.0)
        )
        service, clock = self._service()
        responses, _ = replay_session(service, events, clock,
                                      drain_deadline_s=5.0)
        shed = [r for r in responses if r.outcome == "shed"]
        assert shed and all(r.reason for r in shed)
        assert len(responses) == 40

    def test_realtime_replay_answers_each_request_once(self):
        """The loop's wall-clock branch (``repro replay`` with workers)
        answers every request exactly once and returns as soon as the
        stream is exhausted and the front door is idle, well before its
        wall cap."""
        events = generate_traffic(
            TrafficSpec(shape="bursty", requests=30, duration_s=2.0, seed=4)
        )
        front = ShardedService(ServiceConfig(workers=0, queue_capacity=64),
                               full_runner=ok_full, fast_runner=ok_fast)
        started = time.monotonic()
        responses = replay_traffic(front, events, None, time_scale=0.05)
        assert time.monotonic() - started < 30.0
        assert sorted(r.request_id for r in responses) == sorted(
            e.request.request_id for e in events)
        assert front.pending == 0
        assert front.take_completed() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the supervised worker pool forks its workers",
    )
    def test_wall_clock_replay_command_answers_each_request_once(
        self, monkeypatch, capsys
    ):
        """``repro replay`` with a worker pool takes the loop's wall-clock
        branch end to end: exit 0, and one answer per generated request."""
        from repro.harness import cli
        from repro.service import loadgen

        answered = []

        def recording_session(*args, **kwargs):
            responses, stats = replay_session(*args, **kwargs)
            answered.extend(r.request_id for r in responses)
            return responses, stats

        monkeypatch.setattr(loadgen, "replay_session", recording_session)
        code = cli.main(["replay", "--shape", "uniform", "--requests", "12",
                         "--workers", "1", "--time-scale", "0.1"])
        assert code == 0
        events = generate_traffic(TrafficSpec(shape="uniform", requests=12,
                                              duration_s=30.0, seed=0))
        assert sorted(answered) == sorted(e.request.request_id for e in events)
        out = json.loads(capsys.readouterr().out)
        assert out["breakdown"]["total"] == 12


class TestBreakdown:
    def _resp(self, rid, client, outcome, tier, reason="", degraded=False):
        return SimResponse(
            request_id=rid, client=client, outcome=outcome, tier=tier,
            degraded=degraded, reason=reason,
        )

    def test_derived_rates_and_per_client_refusals(self):
        responses = [
            self._resp("a", "alice", "full", "full"),
            self._resp("b", "alice", "degraded", "fast", "queue-pressure", True),
            self._resp("c", "bob", "shed", "none", "deadline-expired"),
            self._resp("d", "bob", "shed", "none", "drain-deadline"),
            self._resp("e", "carol", "rejected", "none", "queue-full"),
        ]
        bd = breakdown(responses)
        # Original histogram keys survive unchanged.
        assert bd["total"] == 5
        assert bd["outcomes"] == {
            "full": 1, "degraded": 1, "shed": 2, "rejected": 1
        }
        assert bd["tiers"] == {"full": 1, "fast": 1, "none": 3}
        # Satellite fields: only the deadline-reason shed counts as a miss.
        assert bd["deadline_misses"] == 1
        assert bd["deadline_miss_rate"] == pytest.approx(0.2)
        assert bd["degraded_share"] == pytest.approx(0.2)
        assert bd["per_client_refusals"] == {"bob": 2, "carol": 1}

    def test_empty_batch(self):
        bd = breakdown([])
        assert bd["total"] == 0
        assert bd["deadline_miss_rate"] == 0.0
        assert bd["degraded_share"] == 0.0
        assert bd["per_client_refusals"] == {}

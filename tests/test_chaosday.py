"""Chaos-day campaigns: drain contract, report reproducibility, the
regression gate, and the hypothesis conservation property."""

import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.harness.chaosday import (
    CampaignConfig,
    check_contract,
    format_report,
    run_campaign,
)
from repro.harness.regression import verify_campaign
from repro.service.loadgen import (
    TrafficSpec,
    VirtualClock,
    generate_traffic,
    replay_session,
)
from repro.service.service import ServiceConfig, SimulationService


def ok_full(request):
    return {"ipc": 1.0}


def flaky_full(request):
    """Deterministically fails a slice of requests (id-derived, not
    random): exercises retry, degradation-on-failure and breaker paths."""
    if int(request.request_id.split("-")[-1]) % 5 == 0:
        raise RuntimeError("synthetic full-tier failure")
    return {"ipc": 1.0}


def ok_fast(request):
    return {"ipc": 0.9}


def small_cfg(**kw):
    defaults = dict(seed=0, requests=40, duration_s=8.0, fault_rate=0.15)
    defaults.update(kw)
    return CampaignConfig(**defaults)


class TestCampaign:
    def test_seeded_campaign_drains_cleanly(self, tmp_path):
        report, code = run_campaign(
            small_cfg(), tmp_path, full_runner=flaky_full, fast_runner=ok_fast
        )
        assert code == 0
        contract = report["contract"]
        assert contract["ok"]
        assert contract["answered"] == contract["submitted"] == 40
        assert contract["unaccounted"] == 0
        assert contract["refusals_without_reason"] == 0
        assert report["fsck"]["exit_code"] == 0
        assert report["deterministic"] is True
        assert (tmp_path / "campaign.json").exists()
        assert (tmp_path / "traffic.json").exists()
        assert (tmp_path / "resultstore").is_dir()
        format_report(report)  # renders without blowing up

    def test_default_campaign_is_one_shard_over_the_store(self, tmp_path):
        """The default day runs one shard over the campaign's result
        store, the only cache of answers (no journal file), and its
        report carries the front door's counters and the verification
        audit."""
        report, code = run_campaign(
            small_cfg(), tmp_path, full_runner=ok_full, fast_runner=ok_fast
        )
        assert code == 0
        store = tmp_path / "resultstore"
        assert [p.name for p in store.glob("shard-*")] == ["shard-00"]
        assert not list(tmp_path.glob("*.jsonl"))
        assert report["counters"]["store_puts"] > 0
        assert report["config"]["shards"] == 1
        assert report["counters"]["front_submitted"] == 40
        assert report["verification"]["ok"]

    def test_same_seed_same_report(self, tmp_path):
        reports = []
        for sub in ("a", "b"):
            r, code = run_campaign(
                small_cfg(seed=11), tmp_path / sub,
                full_runner=flaky_full, fast_runner=ok_fast,
            )
            assert code == 0
            reports.append(r)
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_different_seed_different_traffic(self, tmp_path):
        a, _ = run_campaign(small_cfg(seed=1), tmp_path / "a",
                            full_runner=ok_full, fast_runner=ok_fast)
        b, _ = run_campaign(small_cfg(seed=2), tmp_path / "b",
                            full_runner=ok_full, fast_runner=ok_fast)
        assert a["traffic_fingerprint"] != b["traffic_fingerprint"]

    def test_recording_replay_campaign(self, tmp_path):
        """A campaign replayed from a recorded stream uses it verbatim."""
        from repro.service.loadgen import save_recording

        events = generate_traffic(TrafficSpec(requests=20, duration_s=4.0, seed=3))
        rec = tmp_path / "rec.json"
        save_recording(rec, events)
        report, code = run_campaign(
            small_cfg(recording=str(rec)), tmp_path / "out",
            full_runner=ok_full, fast_runner=ok_fast,
        )
        assert code == 0
        assert report["contract"]["submitted"] == 20

    def test_chaos_day_plan_excludes_unrepairable_disk_faults(self):
        """Chaos day turns on every disk fault the plan has, and each is
        transient (retried, or absorbed as a lost write): none leaves a
        damaged file for fsck to quarantine."""
        plan = FaultPlan.chaos_day(seed=0, rate=0.2)
        assert plan.service_overload_rate == 0.2
        disk = {f.name: getattr(plan, f.name) for f in fields(plan)
                if f.name.startswith("disk_")}
        assert disk == {"disk_torn_write_rate": 0.2, "disk_enospc_rate": 0.2,
                        "disk_rename_fail_rate": 0.2}


class TestShardedCampaign:
    def test_sharded_campaign_satisfies_the_contract(self, tmp_path):
        """The combined-fault day routed through the 2-shard front-door:
        drain contract holds, the store comes out fsck-clean, and no
        lease survives the drain."""
        report, code = run_campaign(
            small_cfg(shards=2), tmp_path,
            full_runner=flaky_full, fast_runner=ok_fast,
        )
        assert code == 0
        assert report["contract"]["ok"]
        assert report["fsck"]["exit_code"] == 0
        assert report["config"]["shards"] == 2
        assert report["counters"]["front_submitted"] == 40
        assert report["counters"]["front_answered"] == 40
        # Every full answer that reached the store is addressable, in
        # the one segment whatever the shard count…
        store = tmp_path / "resultstore"
        assert [p.name for p in store.glob("shard-*")] == ["shard-00"]
        # …and the drain released every coalescing lease.
        leases = tmp_path / "resultstore" / "leases"
        assert not leases.is_dir() or not list(leases.glob("*.lease"))
        assert verify_campaign(tmp_path / "campaign.json").ok
        format_report(report)  # renders the sharding line

    def test_sharded_campaign_reproducible(self, tmp_path):
        reports = []
        for sub in ("a", "b"):
            r, code = run_campaign(
                small_cfg(seed=5, shards=2), tmp_path / sub,
                full_runner=ok_full, fast_runner=ok_fast,
            )
            assert code == 0
            reports.append(r)
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_second_campaign_over_same_store_resimulates_nothing(self, tmp_path):
        """A recording replayed twice against one campaign directory:
        pass 2 is pure result-store hits — zero simulations."""
        from repro.service.loadgen import TimedRequest, save_recording
        from repro.service.request import SimRequest

        events = [
            TimedRequest(
                at_s=i * 0.05,
                request=SimRequest(
                    request_id=f"q-{i}", client="c", mix="mix05",
                    mode="adts", quanta=4, warmup_quanta=1, seed=i % 3,
                ),
            )
            for i in range(12)
        ]
        rec = tmp_path / "rec.json"
        save_recording(rec, events)
        counters = []
        for _ in range(2):
            report, code = run_campaign(
                small_cfg(recording=str(rec), fault_rate=0.0, shards=2),
                tmp_path / "day", full_runner=ok_full, fast_runner=ok_fast,
            )
            assert code == 0
            assert report["breakdown"]["outcomes"] == {"full": 12}
            counters.append(report["counters"])
        cold, warm = counters
        assert cold["front_simulations"] == 3  # one per distinct identity
        assert warm["front_simulations"] == 0  # pass 2: all from the store
        assert warm["front_store_hits"] == 12


class TestCheckContract:
    def test_detects_silent_drop_duplicate_and_reasonless(self):
        events = generate_traffic(TrafficSpec(requests=4, duration_s=1.0, seed=0))
        clock = VirtualClock()
        service = SimulationService(
            ServiceConfig(workers=0), full_runner=ok_full,
            fast_runner=ok_fast, clock=clock,
        )
        responses, stats = replay_session(service, events, clock,
                                          drain_deadline_s=5.0)
        good = check_contract(events, responses, stats)
        assert good["ok"]
        # Drop one response: conservation must flag it.
        dropped = check_contract(events, responses[1:], stats)
        assert not dropped["ok"] and dropped["unaccounted"] == 1
        # Duplicate one: also flagged.
        duped = check_contract(events, responses + [responses[0]], stats)
        assert not duped["ok"] and duped["unaccounted"] == 1


class TestCampaignProfile:
    def test_config_digest_names_what_was_measured_not_where_it_was_saved(
            self, tmp_path):
        """One seed-0 campaign captured into two stores under two labels
        measures the same configuration: equal digests, equal metrics."""
        from repro.behavior.store import ProfileStore

        profiles = []
        for name, label in (("p1", "gate"), ("p2", "other")):
            store = tmp_path / name
            report, code = run_campaign(
                small_cfg(profile_store=str(store), profile_label=label),
                tmp_path / f"out-{name}", full_runner=ok_full, fast_runner=ok_fast)
            assert code == 0
            profiles.append(ProfileStore(store).load(report["behavior"]["profile"]))
        a, b = profiles
        assert a.identity["config_digest"] == b.identity["config_digest"]
        assert a.metrics == b.metrics


class TestVerifyCampaign:
    def test_good_report_passes(self, tmp_path):
        run_campaign(small_cfg(), tmp_path,
                     full_runner=ok_full, fast_runner=ok_fast)
        gate = verify_campaign(tmp_path / "campaign.json")
        assert gate.ok, gate.summary()
        assert gate.files_compared == 1

    def test_tampered_report_fails_the_gate(self, tmp_path):
        run_campaign(small_cfg(), tmp_path,
                     full_runner=ok_full, fast_runner=ok_fast)
        path = tmp_path / "campaign.json"
        doc = json.loads(path.read_text())
        doc["contract"]["unaccounted"] = 3  # breaks the embedded checksum
        path.write_text(json.dumps(doc))
        gate = verify_campaign(path)
        assert not gate.ok

    def test_violating_report_fails_the_gate(self, tmp_path):
        from repro.storage.artifact import embed_json_artifact
        from repro.storage.atomic import atomic_write_bytes

        bad = {
            "kind": "chaos-campaign",
            "exit_code": 1,
            "contract": {"ok": False, "submitted": 10, "answered": 9,
                         "unaccounted": 1, "refusals_without_reason": 0},
            "fsck": {"exit_code": 0},
        }
        doc = embed_json_artifact(bad, "chaos-campaign", 1)
        path = tmp_path / "campaign.json"
        atomic_write_bytes(path, json.dumps(doc).encode())
        gate = verify_campaign(path)
        assert not gate.ok
        paths = {m.path for m in gate.mismatches}
        assert "$.contract.ok" in paths and "$.contract.unaccounted" in paths

    def test_missing_file_fails_loudly(self, tmp_path):
        gate = verify_campaign(tmp_path / "nope.json")
        assert not gate.ok


class TestChaosdayCli:
    def test_cli_campaign_exits_zero_and_fscks_clean(self, tmp_path):
        """The acceptance-criteria invocation, in-process: a seeded
        combined-fault diurnal campaign with autoscaling, real engines."""
        from repro.harness.cli import main
        from repro.storage.fsck import fsck_tree

        out = tmp_path / "campaign"
        rc = main([
            "chaosday", "--out", str(out), "--requests", "25",
            "--duration", "6", "--seed", "3", "--json",
        ])
        assert rc == 0
        report = json.loads((out / "campaign.json").read_text())
        assert report["contract"]["ok"]
        assert verify_campaign(out / "campaign.json").ok
        assert fsck_tree(out, repair=False).exit_code == 0


@given(
    seed=st.integers(0, 2**16),
    fault_rate=st.floats(0.0, 0.5),
    shape=st.sampled_from(("uniform", "diurnal", "bursty", "ramp")),
    flaky=st.booleans(),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_request_conservation_under_any_seeded_fault_schedule(
    seed, fault_rate, shape, flaky
):
    """The property the whole PR hangs on: for ANY seed, fault schedule,
    traffic shape and engine flakiness — admitted == answered + refused-
    with-a-reason; nothing is ever silently dropped or double-answered."""
    events = generate_traffic(TrafficSpec(
        shape=shape, requests=25, duration_s=5.0, seed=seed,
        expired_fraction=0.2, deadline_fraction=0.3,
    ))
    clock = VirtualClock()
    service = SimulationService(
        ServiceConfig(
            workers=0, queue_capacity=8, max_attempts=2,
            breaker_failures=2, breaker_cooldown_s=0.5,
            fault_plan=FaultPlan.chaos_day(seed=seed, rate=fault_rate),
        ),
        full_runner=flaky_full if flaky else ok_full,
        fast_runner=ok_fast,
        clock=clock,
    )
    responses, stats = replay_session(service, events, clock,
                                      drain_deadline_s=10.0, max_s=60.0)
    contract = check_contract(events, responses, stats)
    assert contract["ok"], contract
    counters = stats["counters"]
    answered = (counters["completed_full"] + counters["degraded"]
                + counters["rejected"] + counters["shed"]
                + counters["failed"])
    assert answered == counters["submitted"] == len(events)


class TestCorruptionCampaign:
    def test_injected_corruption_is_caught_and_campaign_passes(self, tmp_path):
        """The tentpole gate: with silent corruption injected into every
        served result and verification at 100%, the campaign passes ONLY
        because every tainted digest was neutralized — quarantined as
        proven-divergent, or fail-safe evicted when chaos shed its shadow
        probe — and the report proves it."""
        report, code = run_campaign(
            small_cfg(shards=2, verify_rate=1.0, corrupt_rate=1.0,
                      dlq_threshold=3),
            tmp_path, full_runner=ok_full, fast_runner=ok_fast,
        )
        assert code == 0
        audit = report["verification"]
        assert audit["ok"] is True
        assert report["counters"]["front_results_corrupted"] > 0
        assert audit["caught"] > 0
        assert audit["neutralized"] == audit["tainted_digests"]
        assert audit["uncaught"] == []
        assert audit["live_divergent"] == 0
        assert audit["integrity"]["divergent_evidence"] > 0
        assert report["contract"]["ok"] is True
        assert report["fsck"]["exit_code"] == 0
        assert "integrity: OK" in format_report(report)
        gate = verify_campaign(tmp_path / "campaign.json")
        assert gate.ok, gate.mismatches

    def test_uncaught_corruption_fails_the_campaign(self, tmp_path):
        """Corruption injected with verification OFF: the tainted results
        sit in the store, the audit reports them uncaught, and the
        campaign (and the regression gate) fail."""
        report, code = run_campaign(
            small_cfg(shards=2, corrupt_rate=1.0),
            tmp_path, full_runner=ok_full, fast_runner=ok_fast,
        )
        assert code == 1
        audit = report["verification"]
        assert audit["ok"] is False
        assert len(audit["uncaught"]) > 0
        assert report["contract"]["ok"] is False
        gate = verify_campaign(tmp_path / "campaign.json")
        assert not gate.ok

    def test_corruption_campaign_reproducible(self, tmp_path):
        reports = []
        for sub in ("a", "b"):
            r, code = run_campaign(
                small_cfg(seed=7, shards=2, verify_rate=1.0,
                          corrupt_rate=0.3, dlq_threshold=3),
                tmp_path / sub, full_runner=ok_full, fast_runner=ok_fast,
            )
            assert code == 0
            reports.append(r)
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_report_holds_each_fact_once(self, tmp_path):
        """Counters live only in ``counters`` and the audit only in
        ``verification``: no sharding block, no audit copy in the
        contract, no counter copies in the audit."""
        report, code = run_campaign(
            small_cfg(shards=2, verify_rate=1.0, corrupt_rate=0.3,
                      dlq_threshold=3),
            tmp_path, full_runner=ok_full, fast_runner=ok_fast,
        )
        assert code == 0
        assert "sharding" not in report
        assert "verification" not in report["contract"]
        audit = report["verification"]
        assert "counters" not in audit and "corrupted_injected" not in audit
        assert report["counters"]["front_results_corrupted"] > 0
        assert report["counters"]["verify_sampled"] > 0

    def test_verify_rate_alone_adds_the_result_store(self, tmp_path):
        report, code = run_campaign(
            small_cfg(verify_rate=1.0),
            tmp_path, full_runner=ok_full, fast_runner=ok_fast,
        )
        assert code == 0
        assert report["config"]["shards"] == 1
        assert (tmp_path / "resultstore").is_dir()
        assert report["counters"]["verify_sampled"] > 0

    def test_contract_folds_audit_in(self):
        clock = VirtualClock()
        svc = SimulationService(
            ServiceConfig(workers=0), full_runner=ok_full,
            fast_runner=ok_fast, clock=clock,
        )
        events = generate_traffic(
            TrafficSpec(shape="uniform", requests=5, duration_s=1.0, seed=0)
        )
        responses, stats = replay_session(svc, events, clock,
                                          drain_deadline_s=5.0)
        good = check_contract(events, responses, stats)
        assert good["ok"] and "verification" not in good
        bad_audit = {"ok": False, "uncaught": ["d" * 64]}
        folded = check_contract(events, responses, stats, audit=bad_audit)
        assert folded["ok"] is False
        assert "verification" not in folded  # the report carries it once

"""Behaviour profiles, baselines, drift, and the in-service DriftGuard.

The contract under test, end to end:

* capture is deterministic and content-addressed — the same measured
  behaviour snapshots to the same profile id, byte-identically;
* drift math is a pure function with a three-way verdict — a profile
  against itself is always ``ok`` with every delta exactly zero, and a
  seeded perturbation beyond tolerance is always ``drift`` (hypothesis
  properties);
* the DriftGuard escalates only on *sustained* drift (streaks +
  cooldown, autoscaler-style hysteresis — no flapping at the tolerance
  boundary) and never costs a response: with the guard attached and
  degradation active, every submitted request is still answered exactly
  once;
* profiles are first-class storage artifacts: fsck classifies them
  (healthy / migratable / corrupt+quarantine), and campaign reports
  import as baseline-comparable profiles;
* `verify_profile` turns drift into the regression gate CI keys on.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior import (
    BehaviorProfile,
    DriftConfig,
    DriftGuard,
    ProfileStore,
    compute_drift,
    flatten_metrics,
    load_profile,
    profile_from_campaign,
    profile_from_service,
    profile_from_sim,
    service_rates,
)
from repro.behavior.guard import COOLDOWN_S, DRIFT_STREAK, WINDOW
from repro.behavior.profile import RATE_DENOMINATOR, SERVICE_RATE_KEYS
from repro.harness.regression import verify_profile
from repro.service import (
    ServeLoop,
    ServiceConfig,
    ShardedService,
    SimRequest,
)
from repro.storage import fsck_tree


def make_profile(metrics=None, label="t", source="test"):
    return BehaviorProfile(
        label=label,
        source=source,
        metrics=metrics or {"rate.answered": 0.9, "sim.ipc": 1.5},
        identity={"seed": 0},
        window={"requests": 10},
    )


# -- capture ------------------------------------------------------------------
class TestFlatten:
    def test_nested_numeric_leaves_only(self):
        flat = flatten_metrics({
            "a": {"b": 1, "c": 2.5},
            "flag": True,
            "name": "dropped",
            "none": None,
            "list": [1, 2],
        })
        assert flat == {"a.b": 1.0, "a.c": 2.5, "flag": 1.0}

    def test_service_rates_whole_run_and_delta(self):
        now = {"front_submitted": 20, "front_answered": 18,
               "front_store_hits": 4}
        rates = service_rates(now)
        assert rates["rate.answered"] == pytest.approx(0.9)
        assert rates["rate.store_hits"] == pytest.approx(0.2)
        # A counter the map lacks is left out, never read as zero.
        assert "rate.verification_divergent" not in rates
        then = {"front_submitted": 10, "front_answered": 10,
                "front_store_hits": 4}
        windowed = service_rates(now, then)
        assert windowed["rate.answered"] == pytest.approx(0.8)
        assert windowed["rate.store_hits"] == 0.0
        assert service_rates(then, then) == {}  # no traffic, no behaviour


class TestProfile:
    def test_content_addressed_id_is_stable(self):
        assert make_profile().profile_id == make_profile().profile_id
        changed = make_profile(metrics={"rate.answered": 0.8, "sim.ipc": 1.5})
        assert changed.profile_id != make_profile().profile_id

    def test_label_sanitized_and_validation(self):
        assert BehaviorProfile(
            label="we ird/label", source="t", metrics={"m": 1.0}
        ).label == "we-ird-label"
        with pytest.raises(ValueError):
            BehaviorProfile(label="x", source="t", metrics={})
        with pytest.raises(ValueError):
            BehaviorProfile(label="x", source="t", metrics={"m": "nan"})

    def test_payload_round_trip(self):
        p = make_profile()
        q = BehaviorProfile.from_payload(p.to_payload())
        assert q == p and q.profile_id == p.profile_id

    def test_profile_from_sim_prefixes(self):
        p = profile_from_sim({"ipc": 1.2, "switches": 4}, "simrun", seed=7)
        assert p.metrics == {"sim.ipc": 1.2, "sim.switches": 4.0}
        assert p.identity["seed"] == 7


# -- store --------------------------------------------------------------------
class TestStore:
    def test_round_trip_and_baseline_pointer(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        pid = store.save(make_profile())
        assert store.load(pid) == make_profile()
        assert store.baseline_id() is None and store.load_baseline() is None
        store.set_baseline(pid)
        assert store.baseline_id() == pid
        assert store.load_baseline() == make_profile()
        with pytest.raises(FileNotFoundError):
            store.set_baseline("nope")

    def test_save_is_idempotent(self, tmp_path):
        store = ProfileStore(tmp_path)
        a = store.save(make_profile())
        blob = (tmp_path / f"{a}.json").read_bytes()
        assert store.save(make_profile()) == a
        assert (tmp_path / f"{a}.json").read_bytes() == blob  # byte-identical
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_listing_marks_baseline_and_damage(self, tmp_path):
        store = ProfileStore(tmp_path)
        pid = store.save(make_profile())
        store.set_baseline(pid)
        (tmp_path / "broken.json").write_text("{not json")
        entries = {e["id"]: e for e in store.list_profiles()}
        assert entries[pid]["baseline"] is True
        assert entries[pid]["source"] == "test"
        assert "error" in entries["broken"]

    def test_import_campaign_report_and_relabel_profile(self, tmp_path):
        report = tmp_path / "Day-1.json"
        report.write_text(json.dumps({
            "contract": {"submitted": 4, "answered": 4, "ok": True},
            "exit_code": 0,
            "config": {"seed": 3},
        }))
        store = ProfileStore(tmp_path / "store")
        pid = store.import_report(report)  # label defaults to the stem
        imported = store.load(pid)
        assert pid.startswith("day-1-") and imported.source == "imported"
        assert imported.metrics["contract.answered"] == 4.0
        relabelled = store.load(store.import_report(store.path_for(pid), "gate"))
        assert relabelled.label == "gate"
        assert relabelled.metrics == imported.metrics

    def test_import_report_without_front_door_counters(self, tmp_path):
        """An older report whose counters are the shard's alone (no
        ``front_*``) still imports, without the rate.* namespace."""
        report = tmp_path / "old.json"
        report.write_text(json.dumps({
            "contract": {"submitted": 4, "answered": 4, "ok": True},
            "counters": {"submitted": 4, "completed_full": 4,
                         "journal_hits": 0},
            "exit_code": 0,
            "config": {"seed": 3},
        }))
        store = ProfileStore(tmp_path / "store")
        imported = store.load(store.import_report(report))
        assert imported.metrics["counters.submitted"] == 4.0
        assert not [k for k in imported.metrics if k.startswith("rate.")]

    def test_import_rejects_unknown_documents(self, tmp_path):
        alien = tmp_path / "alien.json"
        alien.write_text(json.dumps({"whatever": 1}))
        with pytest.raises(ValueError):
            ProfileStore(tmp_path / "s").import_report(alien)


# -- drift math ---------------------------------------------------------------
_METRIC_NAMES = st.sampled_from(
    ["sim.ipc", "rate.answered", "counters.shed", "bench.detailed.rate",
     "switching.num_switches", "breakdown.degraded_share"]
)
_METRICS = st.dictionaries(
    _METRIC_NAMES,
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


class TestDrift:
    @settings(max_examples=100, deadline=None)
    @given(metrics=_METRICS)
    def test_self_comparison_is_always_ok_with_zero_drift(self, metrics):
        profile = BehaviorProfile(label="p", source="test", metrics=metrics)
        report = compute_drift(profile, profile)
        assert report.ok and report.verdict == "ok"
        assert not report.missing and not report.extra
        assert all(m.rel_delta == 0.0 and m.verdict == "ok"
                   for m in report.metrics)

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(min_value=1.0, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
        bump=st.floats(min_value=0.2, max_value=10.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_perturbation_beyond_tolerance_is_always_drift(
            self, base, bump, sign):
        # delta/(1+delta) >= 0.2/1.2 > the 5% deterministic tolerance,
        # in either direction, for any magnitude above the floor.
        current = base * (1.0 + sign * bump) if sign > 0 else base / (1.0 + bump)
        report = compute_drift(
            {"counters.shed": base}, {"counters.shed": current}
        )
        assert report.verdict == "drift"
        assert report.worst is not None
        assert report.worst.metric == "counters.shed"

    def test_boundary_is_ok_not_drift(self):
        # rel_delta == rel_tol exactly: inside tolerance by definition
        # (strict >), so repeated comparison at the boundary cannot flap.
        cfg = DriftConfig(rel_tol=0.05, warn_fraction=1.0)
        report = compute_drift({"m": 100.0}, {"m": 95.0}, cfg)
        assert report.metrics[0].rel_delta == pytest.approx(0.05)
        assert report.verdict == "ok"

    def test_warn_band_between_ok_and_drift(self):
        cfg = DriftConfig(rel_tol=0.10, warn_fraction=0.5)
        assert compute_drift({"m": 100.0}, {"m": 96.0}, cfg).verdict == "ok"
        assert compute_drift({"m": 100.0}, {"m": 92.0}, cfg).verdict == "warn"
        assert compute_drift({"m": 100.0}, {"m": 85.0}, cfg).verdict == "drift"

    @pytest.mark.parametrize("name", [
        "rate.simulations",  # control
        "rate.coalesced_waiters",
        "rate.waiter_refusals",
        "sharding.coalescing.coalesced_waiters",
        "sharding.coalescing.shed_waiters",
        "sharding.coalescing.waiter_refusals",
        "counters.front_coalesced_waiters",
        "counters.front_shed_waiters",
        "counters.front_waiter_refusals",
    ])
    def test_waiter_counters_get_the_default_tolerance(self, name):
        # Waiter counts are seed-deterministic like every other metric:
        # a 0.2 -> 0.3 move is 10% of the floor, twice the default band.
        report = compute_drift({name: 0.2}, {name: 0.3})
        assert report.verdict == "drift"
        assert report.metrics[0].rel_tol == DriftConfig().rel_tol

    def test_missing_and_extra_are_warn_not_drift(self):
        report = compute_drift({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 3.0})
        assert report.verdict == "warn"
        assert report.missing == ["b"] and report.extra == ["c"]

    def test_ignore_excludes_metrics(self):
        cfg = DriftConfig(rel_tol=0.05, ignore=("fsck",))
        assert cfg.ignored("fsck.exit_code")
        report = compute_drift(
            {"fsck.exit_code": 0.0, "m": 1.0}, {"fsck.exit_code": 1.0, "m": 1.0},
            cfg,
        )
        assert report.ok and len(report.metrics) == 1

    def test_report_dict_is_deterministic(self):
        a = make_profile(metrics={"m": 1.0, "n": 5.0})
        b = make_profile(metrics={"m": 1.3, "n": 5.0}, label="other")
        one = json.dumps(compute_drift(a, b).to_dict(), sort_keys=True)
        two = json.dumps(compute_drift(a, b).to_dict(), sort_keys=True)
        assert one == two


# -- the guard ----------------------------------------------------------------
def feed(guard, now, submitted, answered):
    guard.observe(now, {"front_submitted": submitted, "front_answered": answered})


class TestDriftGuard:
    """The guard at its constants. Snapshots add 5 submitted requests each
    and come ``COOLDOWN_S`` apart unless a test says otherwise, so only the
    cooldown test is throttled. The baseline's ``rate.answered`` is 0.9."""

    def test_requires_rate_metrics(self):
        with pytest.raises(ValueError):
            DriftGuard({"sim.ipc": 1.0})

    def test_escalates_on_sustained_drift_and_recovers(self):
        guard = DriftGuard(make_profile(), degrade_on_drift=True)
        now, sub, ans = 0.0, 0, 0

        def steps(n, answered):
            nonlocal now, sub, ans
            for _ in range(n):
                sub, ans = sub + 5, ans + answered
                feed(guard, now, sub, ans)
                now += COOLDOWN_S

        steps(WINDOW, answered=4)  # matching behaviour: 0.8 is within tolerance
        assert guard.level == 0 and guard.last_verdict == "ok"
        steps(2 * WINDOW, answered=0)  # behaviour collapses: answered flatlines
        assert guard.level == 2 and guard.state == "drifting"
        assert guard.degrade_active
        kinds = [e.kind for e in guard.take_events()]
        assert kinds == ["escalate", "escalate"]
        assert guard.take_events() == []  # drained
        steps(3 * WINDOW, answered=4)  # recovery steps down one level at a time
        assert guard.level == 0 and not guard.degrade_active
        assert guard.clears == 2

    def test_single_bad_window_never_escalates(self):
        """Every third snapshot reads as if nothing had been answered. The
        window's rate compares its newest snapshot with its oldest, so only
        those windows drift, and the ok windows in between reset the
        streaks."""
        guard = DriftGuard(make_profile())
        now, sub, verdicts = 0.0, 0, []
        for i in range(3 * WINDOW):
            sub += 5
            feed(guard, now, sub, 0 if i % 3 == 2 else 0.9 * sub)
            verdicts.append(guard.last_verdict)
            now += COOLDOWN_S
        assert verdicts.count("drift") > WINDOW // 2
        assert guard.level == 0 and guard.escalations == 0

    def test_cooldown_throttles_level_changes(self):
        guard = DriftGuard(make_profile())
        dt = COOLDOWN_S / 8
        assert DRIFT_STREAK * dt < COOLDOWN_S
        now, sub = 0.0, 0
        for _ in range(WINDOW):
            sub += 5
            feed(guard, now, sub, 0)  # permanent drift
            now += dt
        # The drift streak for level 2 is complete sooner than COOLDOWN_S
        # after the first escalation; the second one waits it out.
        first, second = guard.events
        assert guard.level == 2 and guard.escalations == 2
        assert second.t - first.t == COOLDOWN_S

    def test_schema_growth_is_not_drift(self):
        guard = DriftGuard({"rate.answered": 1.0})
        now, sub = 0.0, 0
        for _ in range(10):
            sub += 5
            guard.observe(now, {
                "front_submitted": sub, "front_answered": sub,
                "brand_new_counter": sub * 3,
            })
            now += COOLDOWN_S
        assert guard.comparisons > 0 and guard.level == 0

    def test_on_escalate_hook_fires(self):
        seen = []
        guard = DriftGuard(make_profile(), on_escalate=seen.append)
        now, sub, ans = 0.0, 0, 0
        for _ in range(20):
            sub += 5
            feed(guard, now, sub, ans)
            now += COOLDOWN_S
        assert seen and seen[0].kind == "escalate"
        assert guard.summary()["events"]


class TestGuardInService:
    """A drift guard attached to the one-shard front door: escalation
    telemetry, the ``drift-guard`` degradation rung, and the serve loop's
    drift events."""

    def make_service(self, config, **runners):
        return ShardedService(config, shards=1, **runners)

    def run_service(self, *, degrade_on_drift, n=30):
        clock = {"t": 0.0}
        svc = self.make_service(
            ServiceConfig(workers=0, queue_capacity=64),
            full_runner=lambda r: {"ipc": 1.0},
            fast_runner=lambda r: {"ipc": 0.5},
            clock=lambda: clock["t"],
        )
        # Baseline promises zero answering; the live service answers
        # everything, so every comparable window reads as drift.
        guard = DriftGuard({"rate.answered": 0.0},
                           degrade_on_drift=degrade_on_drift)
        svc.drift_guard = guard
        observed, observe = [], guard.observe

        def counting_observe(now, counters):
            observed.append(now)
            return observe(now, counters)

        guard.observe = counting_observe
        for i in range(n):
            svc.submit(SimRequest(request_id=f"r{i}", client="c", mix="mix05",
                                  mode="adts", quanta=4, warmup_quanta=1,
                                  seed=1))
            clock["t"] += 1.0
            svc.pump()
            # Exactly one counter map per (front-door) pump, never one per
            # shard.
            assert len(observed) == i + 1
        svc.drain(5.0)
        # The completed stream is the single source of truth: immediate
        # dispositions land there too, so it alone proves conservation.
        return svc, guard, svc.take_completed()

    def test_escalation_telemetry_without_losing_requests(self):
        svc, guard, responses = self.run_service(degrade_on_drift=True)
        assert guard.escalations > 0  # the guard did fire...
        ids = [r.request_id for r in responses]
        assert len(ids) == 30 and len(set(ids)) == 30  # ...and cost nothing
        assert any(r.outcome == "degraded" and r.reason == "drift-guard"
                   for r in responses)
        assert svc.stats()["drift_guard"]["escalations"] == guard.escalations
        assert svc.stats()["drift_guard"]["state"] == guard.state

    def test_observe_only_guard_never_degrades(self):
        svc, guard, responses = self.run_service(degrade_on_drift=False)
        assert guard.escalations > 0
        assert not any(r.reason == "drift-guard" for r in responses)
        assert len(responses) == 30

    def test_serve_loop_emits_drift_events(self, tmp_path):
        lines = [
            json.dumps({"op": "submit", "request": {
                "request_id": f"r{i}", "mix": "mix05", "mode": "adts",
                "quanta": 4, "warmup_quanta": 1, "seed": 1}})
            for i in range(12)
        ]
        feed = tmp_path / "requests.jsonl"
        feed.write_text("\n".join(lines) + "\n")
        outfile = io.StringIO()
        svc = self.make_service(
            ServiceConfig(workers=0, queue_capacity=64),
            full_runner=lambda r: {"ipc": 1.0},
            fast_runner=lambda r: {"ipc": 0.5},
        )
        # Absurd baseline: answering is drift.
        guard = DriftGuard({"rate.answered": 0.0})
        svc.drift_guard = guard
        # Escalate the guard before the loop starts (a file feed hands the
        # whole burst to one iteration, so the in-loop window never spans
        # traffic); the loop must then drain the pending events.
        for t in range(1, WINDOW):
            guard.observe(float(t), {"front_submitted": 5 * t,
                                     "front_answered": 5 * t})
            if guard.escalations:
                break
        assert guard.escalations > 0
        with feed.open() as infile:
            assert ServeLoop(svc, infile=infile, outfile=outfile).run() == 0
        events = [json.loads(l) for l in outfile.getvalue().splitlines()]
        drift = [e for e in events if e["event"] == "drift"]
        assert drift and drift[0]["kind"] == "escalate"
        assert drift[0]["state"] in ("warning", "drifting")
        drained = next(e for e in events if e["event"] == "drained")
        assert drained["stats"]["drift_guard"]["escalations"] >= 1
        assert len([e for e in events if e["event"] == "response"]) == 12


class TestGuardInShardedService(TestGuardInService):
    """The same contract with two shards: the guard still watches the
    front door, once per pump, and its rung is applied there."""

    def make_service(self, config, **runners):
        return ShardedService(config, shards=2, **runners)


# -- storage integration ------------------------------------------------------
class TestProfileFsck:
    def test_healthy_store_and_pointer_ignored(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.set_baseline(store.save(make_profile()))
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 0 and report.counts == {"healthy": 1}

    def test_crc_damage_is_quarantined(self, tmp_path):
        store = ProfileStore(tmp_path)
        pid = store.save(make_profile())
        path = tmp_path / f"{pid}.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["sim.ipc"] = 99.0  # bytes no longer match the CRC
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 1 and report.counts.get("corrupt") == 1
        assert path.with_suffix(".json.corrupt").exists()

    def test_structural_damage_is_quarantined(self, tmp_path):
        from repro.storage import atomic_write_bytes, embed_json_artifact

        doc = embed_json_artifact(
            {"kind": "behaviour-profile", "label": "x", "source": "t",
             "metrics": {}, "identity": {}},  # no metrics: poison baseline
            "behaviour-profile", 1,
        )
        atomic_write_bytes(tmp_path / "empty.json",
                           json.dumps(doc).encode("utf-8"))
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 1 and report.counts.get("corrupt") == 1

    @pytest.mark.parametrize("damage", [
        {"metrics": {"ipc": 1.5, "switches": "12"}},
        {"metrics": {"ipc": 1.5, "ok": True}},
        {"label": ""},
        {"source": None},
        {"identity": None},
    ])
    def test_loader_refuses_what_fsck_quarantines(self, tmp_path, damage):
        """A CRC-valid but damaged profile is refused by its reader, not
        loaded with the damage dropped or defaulted; fsck calls the same
        document corrupt."""
        from repro.behavior import load_profile
        from repro.storage import atomic_write_bytes, embed_json_artifact

        payload = dict(make_profile(metrics={"ipc": 1.5}).to_payload(), **damage)
        path = tmp_path / "damaged.json"
        atomic_write_bytes(path, json.dumps(
            embed_json_artifact(payload, "behaviour-profile", 1)).encode("utf-8"))
        with pytest.raises(ValueError):
            load_profile(path)
        report = fsck_tree(tmp_path, repair=False)
        assert report.counts == {"corrupt": 1}

    def test_foreign_version_is_refused(self, tmp_path):
        from repro.behavior import load_profile
        from repro.storage import ArtifactVersionError

        store = ProfileStore(tmp_path)
        path = tmp_path / f"{store.save(make_profile())}.json"
        doc = json.loads(path.read_text())
        doc["artifact"]["version"] = 2  # outside the CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactVersionError):
            load_profile(path)
        assert fsck_tree(tmp_path, repair=False).counts == {"corrupt": 1}

    def test_plain_json_profile_is_migratable(self, tmp_path):
        (tmp_path / "legacy.json").write_text(
            json.dumps(make_profile().to_payload())
        )
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 0
        assert report.counts.get("migratable") == 1
        # and still loadable through the normal path
        assert load_profile(tmp_path / "legacy.json") == make_profile()


# -- offline gating -----------------------------------------------------------
class TestVerifyProfile:
    def save_pair(self, tmp_path, base_metrics, cur_metrics):
        store = ProfileStore(tmp_path)
        base = store.save(make_profile(metrics=base_metrics, label="base"))
        cur = store.save(make_profile(metrics=cur_metrics, label="cur"))
        return store.path_for(cur), store.path_for(base)

    def test_identical_profiles_pass(self, tmp_path):
        cur, base = self.save_pair(
            tmp_path, {"m": 1.0, "n": 2.0}, {"m": 1.0, "n": 2.0})
        report = verify_profile(cur, base)
        assert report.ok and report.files_compared == 1

    def test_drift_fails_with_metric_paths(self, tmp_path):
        cur, base = self.save_pair(
            tmp_path, {"counters.shed": 10.0}, {"counters.shed": 30.0})
        report = verify_profile(cur, base)
        assert not report.ok
        assert report.mismatches[0].path == "$.metrics.counters.shed"

    def test_missing_metric_fails_extra_does_not(self, tmp_path):
        cur, base = self.save_pair(
            tmp_path, {"m": 1.0, "gone": 5.0}, {"m": 1.0, "new": 7.0})
        report = verify_profile(cur, base)
        assert [m.kind for m in report.mismatches] == ["missing"]
        assert "gone" in report.mismatches[0].path

    def test_warn_only_fails_when_asked(self, tmp_path):
        cur, base = self.save_pair(tmp_path, {"m": 100.0}, {"m": 96.0})
        assert verify_profile(cur, base).ok
        assert not verify_profile(cur, base, fail_on_warn=True).ok

    def test_unloadable_side_is_reported_not_raised(self, tmp_path):
        cur, base = self.save_pair(tmp_path, {"m": 1.0}, {"m": 1.0})
        report = verify_profile(tmp_path / "absent.json", base)
        assert not report.ok and report.mismatches[0].kind == "missing"

    @pytest.mark.parametrize("current, kind", [
        ({"config_digest": "b" * 64}, "value"),
        ({}, "missing"),
    ])
    def test_capture_of_another_configuration_fails(self, tmp_path, current, kind):
        """Equal metrics do not pass a capture that measured another
        configuration than the baseline names."""
        store = ProfileStore(tmp_path)

        def save(label, identity):
            return store.path_for(store.save(BehaviorProfile(
                label=label, source="test", metrics={"m": 1.0},
                identity={"seed": 0, **identity})))

        base = save("base", {"config_digest": "a" * 64})
        report = verify_profile(save("cur", current), base)
        assert [(m.path, m.kind) for m in report.mismatches] == [
            ("$.identity.config_digest", kind)]
        same = save("same", {"config_digest": "a" * 64})
        assert verify_profile(same, base).ok
        # A baseline that names no digest checks metrics only.
        assert verify_profile(base, save("plain", {})).ok


# -- capture from live layers -------------------------------------------------
class TestCaptureHelpers:
    def test_profile_from_service_speaks_guard_namespace(self):
        svc = ShardedService(
            ServiceConfig(workers=0, queue_capacity=16),
            full_runner=lambda r: {"ipc": 1.0},
            fast_runner=lambda r: {"ipc": 0.5},
        )
        for i in range(6):
            svc.submit(SimRequest(
                request_id=f"r{i}", client="c", mix="mix05", mode="adts",
                quanta=4, warmup_quanta=1, seed=1))
            svc.pump()
        svc.drain(5.0)
        svc.take_completed()
        profile = profile_from_service(svc, "svc", seed=1)
        assert profile.metrics["counters.front_submitted"] == 6.0
        assert 0.0 <= profile.metrics["rate.answered"] <= 1.0
        # A service profile can seed a guard directly.
        DriftGuard(profile)
        assert profile.identity["config_digest"]

    def test_every_rate_reads_a_counter_of_the_map(self):
        counters = ShardedService(ServiceConfig(workers=0)).stats()["counters"]
        assert RATE_DENOMINATOR in counters
        assert set(SERVICE_RATE_KEYS.values()) <= set(counters)

    def test_profile_from_campaign_requires_contract(self):
        with pytest.raises(ValueError):
            profile_from_campaign({"no": "contract"}, "x")

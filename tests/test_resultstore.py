"""The content-addressed result store: durable round trips, corrupt
entries served as misses (never as answers), crash-safe leases with
dead-PID breaking, the startup sweep, and the fsck taxonomy for store
entries and leases."""

import json
import os
import subprocess
import sys

import pytest

from repro.harness.runner import run_fields
from repro.service import ResultStore, SimRequest
from repro.service.identity import request_identity
from repro.storage import fsck_tree


def req(**kw):
    defaults = dict(
        request_id="r1", client="c", mix="mix05", mode="adts",
        quanta=5, warmup_quanta=1, seed=3,
    )
    defaults.update(kw)
    return SimRequest(**defaults)


def fields(r):
    """The run fields the store files ``r``'s answer under."""
    return run_fields(r.run_spec())


def dead_pid() -> int:
    """A PID that certainly names no live process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "rs", shards=3)


class TestEntries:
    def test_roundtrip_is_byte_identical(self, store):
        r = req()
        digest = request_identity(r)
        payload = {"ipc": 1.25, "switches": 4}
        assert store.put(fields(r), payload)
        assert store.get(digest) == payload
        assert digest in store
        assert len(store) == 1
        assert store.counters["puts"] == 1
        assert store.counters["hits"] == 1

    def test_absent_entry_is_a_plain_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.counters["misses"] == 1
        assert store.counters["corrupt_misses"] == 0

    def test_bitrot_is_a_quarantined_miss(self, store):
        r = req()
        digest = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        path = store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get(digest) is None
        assert store.counters["corrupt_misses"] == 1
        assert not path.exists()  # moved aside, not re-served
        assert path.with_name(path.name + ".corrupt").exists()

    def test_flipped_artifact_key_is_a_quarantined_miss(self, store):
        """One bit flipped in the key ``"artifact"`` must not turn an
        entry into unchecked plain JSON: with a second flip in the
        payload, a stored IPC of 1.5 would be served as 7.5."""
        r = req()
        digest = request_identity(r)
        store.put(fields(r), {"ipc": 1.5})
        path = store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[blob.index(b'"artifact"') + 1] ^= 0x02  # "crtifact"
        blob[blob.index(b'"ipc": 1.5') + len('"ipc": ')] ^= 0x06  # 7.5
        path.write_bytes(bytes(blob))
        assert store.get(digest) is None
        assert store.counters["corrupt_misses"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_foreign_version_is_a_quarantined_miss(self, store):
        """The CRC does not cover the artifact block, so an entry whose
        ``version`` names another schema (edited, or one flipped bit) is
        checksum-valid; the reader refuses it by version."""
        r = req()
        digest = request_identity(r)
        store.put(fields(r), {"ipc": 1.5})
        path = store.path_for(digest)
        doc = json.loads(path.read_text())
        doc["artifact"]["version"] = 3
        path.write_text(json.dumps(doc))
        assert store.get(digest) is None
        assert store.counters["corrupt_misses"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_mislabeled_entry_is_a_quarantined_miss(self, store):
        """A checksum-valid document filed under the wrong digest must
        never be served: it would answer a different simulation."""
        r = req()
        digest = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        wrong = ("f" * 8) + digest[8:]
        os.makedirs(store.segment(wrong), exist_ok=True)
        os.replace(store.path_for(digest), store.path_for(wrong))
        assert store.get(wrong) is None
        assert store.counters["corrupt_misses"] == 1

    def test_put_files_under_the_digest_of_its_own_fields(self, store):
        """The address comes from the fields, so one run's answer can
        never be filed (and served) under another run's digest."""
        a, b = req(seed=1), req(seed=2)
        assert store.put(fields(a), {"ipc": 1.0})
        assert store.get(request_identity(a)) == {"ipc": 1.0}
        assert store.get(request_identity(b)) is None
        assert fsck_tree(store.root, repair=False).exit_code == 0

    def test_segments_partition_by_digest(self, store):
        digests = []
        for seed in range(8):
            r = req(seed=seed)
            d = request_identity(r)
            store.put(fields(r), {"ipc": float(seed)})
            digests.append(d)
        for d in digests:
            assert store.path_for(d).parent == store.segment(d)
            assert store.get(d) is not None


class TestLeases:
    def test_acquire_release_cycle(self, store):
        d = "a" * 64
        assert store.acquire_lease(d)
        assert store.lease_holder(d) == os.getpid()
        assert not store.acquire_lease(d)  # held (by a live process: us)
        store.release_lease(d)
        assert store.acquire_lease(d)

    def test_dead_holder_is_broken_at_acquire(self, store):
        d = "b" * 64
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path(d).write_text(str(dead_pid()))
        assert store.lease_stale(d)
        assert store.acquire_lease(d)  # broke it, took it
        assert store.lease_holder(d) == os.getpid()
        assert store.counters["lease_breaks"] == 1

    def test_unstamped_lease_is_live_at_runtime(self, store):
        """A lease file with no PID yet belongs to a racing acquirer that
        has not stamped it; runtime callers must not break it."""
        d = "c" * 64
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path(d).write_text("")
        assert not store.lease_stale(d)
        assert not store.acquire_lease(d)

    def test_startup_sweep_breaks_dead_and_unstamped_only(self, store):
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path("d" * 64).write_text(str(dead_pid()))
        store.lease_path("e" * 64).write_text("")  # crashed mid-acquire
        store.lease_path("f" * 64).write_text(str(os.getpid()))  # live
        assert store.break_stale_leases() == 2
        assert not store.lease_path("d" * 64).exists()
        assert not store.lease_path("e" * 64).exists()
        assert store.lease_path("f" * 64).exists()
        assert store.counters["stale_leases_broken"] == 2


class TestFsckTaxonomy:
    def test_healthy_entry_and_live_lease_pass(self, store):
        r = req()
        d = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        assert store.acquire_lease(d)
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 0
        assert report.counts.get("healthy") == 1
        assert store.lease_path(d).exists()  # live lease left alone

    def test_mislabeled_entry_quarantined_by_fsck(self, store):
        r = req()
        d = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        path = store.path_for(d)
        doc = json.loads(path.read_bytes())
        # Tamper with the identity, then re-seal the CRC so only the
        # content-address check can catch it.
        from repro.storage import embed_json_artifact

        doc.pop("artifact")
        doc["identity"] = "f" * 64
        sealed = embed_json_artifact(doc, "sim-result", 1)
        path.write_text(json.dumps(sealed))
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 1
        assert any(
            e.status == "corrupt" and e.action == "quarantined"
            for e in report.entries
        )

    def test_filename_mismatch_quarantined_by_fsck(self, store):
        r = req()
        d = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        wrong = ("0" * 8) + d[8:]
        os.makedirs(store.segment(wrong), exist_ok=True)
        os.replace(store.path_for(d), store.path_for(wrong))
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 1

    def test_dead_lease_removed_live_kept(self, store):
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path("a" * 64).write_text(str(dead_pid()))
        store.lease_path("b" * 64).write_text(str(os.getpid()))
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 0  # stale-temp is repairable damage
        assert report.counts.get("stale-temp") == 1
        assert not store.lease_path("a" * 64).exists()
        assert store.lease_path("b" * 64).exists()


class TestIntegrity:
    def test_entries_default_to_unverified(self, store):
        r = req()
        d = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        assert store.integrity_of(d) == "unverified"
        assert store.get(d) == {"ipc": 1.0}

    def test_mark_verified_promotes_and_preserves_payload(self, store):
        r = req()
        d = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        assert store.mark_verified(d) is True
        assert store.integrity_of(d) == "verified"
        assert store.get(d) == {"ipc": 1.0}
        assert store.counters["verified_marks"] == 1
        assert store.counters["puts"] == 1  # a promotion is not a put
        assert store.mark_verified("f" * 64) is False  # absent digest

    def test_mark_verified_never_refiles_a_mislabeled_entry(self, store):
        """An entry filed under B whose fields are A's (a tampered,
        re-sealed document) is never promoted, so it is never re-filed
        under A's digest."""
        from repro.storage import embed_json_artifact

        a, b = req(seed=1), req(seed=2)
        d_a, d_b = request_identity(a), request_identity(b)
        sealed = embed_json_artifact(
            {"identity": d_b, "request": fields(a),
             "payload": {"ipc": 1.0}, "integrity": "unverified"},
            "sim-result", 1,
        )
        path = store.path_for(d_b)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(sealed))
        assert store.mark_verified(d_b) is False
        assert d_a not in store
        assert store.integrity_of(d_b) == "unverified"
        assert store.counters["verified_marks"] == 0

    def test_quarantine_divergent_evicts_and_keeps_both_payloads(self, store):
        r = req()
        d = request_identity(r)
        store.put(fields(r), {"ipc": 1.0})
        path = store.quarantine_divergent(
            fields(r),
            primary_payload={"ipc": 1.0}, shadow_payload={"ipc": 2.0},
            detail="disagreement",
        )
        assert path == store.divergent_path(d) and path.exists()
        assert store.get(d) is None  # a miss: the caller re-simulates
        from repro.storage import load_json_artifact

        _, doc = load_json_artifact(path, expect=("sim-divergence", 1))
        assert doc["primary"] == {"ipc": 1.0}
        assert doc["shadow"] == {"ipc": 2.0}
        summary = store.integrity_summary()
        assert summary["divergent_evidence"] == 1
        assert summary["divergent_live"] == 0

    def test_live_entry_with_bad_integrity_status_is_a_corrupt_miss(
            self, store):
        from repro.storage import embed_json_artifact

        r = req()
        d = request_identity(r)
        sealed = embed_json_artifact(
            {"identity": d, "request": fields(r),
             "payload": {"ipc": 1.0}, "integrity": "divergent"},
            "sim-result", 1,
        )
        path = store.path_for(d)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(sealed))
        assert store.integrity_summary()["divergent_live"] == 1
        assert store.get(d) is None  # never served
        assert store.counters["corrupt_misses"] == 1
        assert not path.exists()  # quarantined away

    def test_put_rejects_unknown_integrity(self, store):
        with pytest.raises(ValueError):
            store.put({}, {"ipc": 1.0}, integrity="divergent")

    def test_peek_has_no_side_effects(self, store):
        r = req()
        d = request_identity(r)
        assert store.peek(d) is None
        store.put(fields(r), {"ipc": 1.0})
        assert store.peek(d) == {"ipc": 1.0}
        assert store.counters["hits"] == 0
        assert store.counters["misses"] == 0


class TestConcurrentSweep:
    def test_two_sweepers_race_without_errors_or_double_counting(
            self, tmp_path):
        """Regression: two front doors restarting over one store sweep the
        same stale leases concurrently. Every dead lease must end up gone,
        exactly one sweeper counts each, and neither raises."""
        import threading

        root = tmp_path / "shared-rs"
        a = ResultStore(root, shards=3)
        b = ResultStore(root, shards=3)
        a.lease_dir.mkdir(parents=True, exist_ok=True)
        corpse = dead_pid()
        n = 50
        digests = [format(i, "064x") for i in range(n)]
        for d in digests:
            a.lease_path(d).write_text(str(corpse))
        live = "f" * 64
        a.lease_path(live).write_text(str(os.getpid()))

        results, errors = {}, []
        barrier = threading.Barrier(2)

        def sweep(name, store_obj):
            try:
                barrier.wait()
                results[name] = store_obj.break_stale_leases()
            except BaseException as exc:  # the bug under regression test
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=("a", a)),
            threading.Thread(target=sweep, args=("b", b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert results["a"] + results["b"] == n  # each counted exactly once
        for d in digests:
            assert not a.lease_path(d).exists()
        assert a.lease_path(live).exists()  # the live lease survived both

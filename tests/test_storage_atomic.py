"""The atomic-write/append/quarantine primitives and the error taxonomy.

These are the foundation everything durable sits on, so the tests pin the
contract hard: an atomic write is all-or-nothing (no torn destination, no
leaked temp), an append lands a whole line or no line (ENOSPC mid-record is
healed by truncation), transient errors are retried with bounded backoff,
persistent errors surface as the right taxonomy class, and quarantine never
overwrites earlier quarantine evidence.
"""

import errno
import json
import os

import pytest

from repro.storage.atomic import (
    DEFAULT_RETRY,
    RetrySpec,
    append_line,
    atomic_write_bytes,
    quarantine,
    read_bytes,
)
from repro.storage.errors import (
    DiskFullError,
    StorageError,
    StoragePermissionError,
    TransientStorageError,
    classify_oserror,
    is_transient,
)
from repro.storage.faultfs import DiskFaultPlan, FaultFS, faultfs_session


FAST_RETRY = RetrySpec(attempts=12, base_delay_s=0.0, max_delay_s=0.0)
ONE_SHOT = RetrySpec(attempts=1, base_delay_s=0.0, max_delay_s=0.0)


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "a.bin"
        atomic_write_bytes(p, b"hello world")
        assert p.read_bytes() == b"hello world"

    def test_overwrites_existing(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(b"old")
        atomic_write_bytes(p, b"new")
        assert p.read_bytes() == b"new"

    def test_no_temp_left_behind(self, tmp_path):
        p = tmp_path / "a.bin"
        atomic_write_bytes(p, b"x" * 1000)
        assert [f.name for f in tmp_path.iterdir()] == ["a.bin"]

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "deep" / "er" / "a.bin"
        atomic_write_bytes(p, b"x")
        assert p.read_bytes() == b"x"

    def test_torn_write_fault_never_tears_destination(self, tmp_path):
        """Under a 100% torn-write plan the write must fail loudly with the
        destination either absent or holding its previous intact content —
        never a prefix."""
        p = tmp_path / "a.bin"
        p.write_bytes(b"intact-old-content")
        plan = DiskFaultPlan(seed=7, torn_write_rate=1.0)
        with faultfs_session(plan):
            with pytest.raises(StorageError):
                atomic_write_bytes(p, b"N" * 4096, retry=FAST_RETRY)
        assert p.read_bytes() == b"intact-old-content"
        assert [f.name for f in tmp_path.iterdir()] == ["a.bin"]

    def test_transient_fault_recovered_by_retry(self, tmp_path):
        """A sub-certain fault rate flaps; the bounded retry must land the
        write intact within its budget (seeded, so deterministic)."""
        p = tmp_path / "a.bin"
        plan = DiskFaultPlan(seed=3, torn_write_rate=0.4, enospc_rate=0.3)
        with faultfs_session(plan) as ffs:
            for i in range(30):
                atomic_write_bytes(p, b"payload-%d" % i, retry=FAST_RETRY)
                assert p.read_bytes() == b"payload-%d" % i
            assert ffs.faults_injected > 0

    def test_enospc_surfaces_as_disk_full(self, tmp_path):
        plan = DiskFaultPlan(seed=0, enospc_rate=1.0)
        with faultfs_session(plan):
            with pytest.raises(DiskFullError):
                atomic_write_bytes(tmp_path / "a.bin", b"x" * 512, retry=FAST_RETRY)

    def test_rename_fault_leaves_no_temp(self, tmp_path):
        plan = DiskFaultPlan(seed=1, rename_fail_rate=1.0)
        with faultfs_session(plan):
            with pytest.raises(StorageError):
                atomic_write_bytes(tmp_path / "a.bin", b"x", retry=FAST_RETRY)
        assert list(tmp_path.iterdir()) == []


class TestAppendLine:
    def test_appends_whole_lines(self, tmp_path):
        p = tmp_path / "j.jsonl"
        append_line(p, '{"a": 1}')
        append_line(p, '{"b": 2}')
        assert p.read_text().splitlines() == ['{"a": 1}', '{"b": 2}']

    def test_enospc_mid_record_leaves_no_torn_tail(self, tmp_path):
        """Satellite: an ENOSPC that lands only a prefix of the record must
        be truncated away — the journal ends at the last complete line."""
        p = tmp_path / "j.jsonl"
        append_line(p, '{"ok": 1}')
        plan = DiskFaultPlan(seed=0, enospc_rate=1.0, enospc_after_bytes=4)
        with faultfs_session(plan):
            with pytest.raises(DiskFullError):
                append_line(p, '{"doomed": "record"}', retry=FAST_RETRY)
        assert p.read_bytes() == b'{"ok": 1}\n'

    def test_flapping_faults_recovered_without_duplicates(self, tmp_path):
        """Retried appends must not double-land a line: each success is
        exactly one copy, even when earlier attempts tore."""
        p = tmp_path / "j.jsonl"
        plan = DiskFaultPlan(seed=11, torn_write_rate=0.35, enospc_rate=0.25)
        with faultfs_session(plan) as ffs:
            for i in range(40):
                append_line(p, json.dumps({"i": i}), retry=FAST_RETRY)
            assert ffs.faults_injected > 0
        lines = p.read_text().splitlines()
        assert [json.loads(l)["i"] for l in lines] == list(range(40))


class TestErrorTaxonomy:
    def test_enospc_classifies_disk_full(self):
        err = classify_oserror(OSError(errno.ENOSPC, "full"))
        assert isinstance(err, DiskFullError)

    def test_eacces_classifies_permission(self):
        err = classify_oserror(OSError(errno.EACCES, "denied"))
        assert isinstance(err, StoragePermissionError)

    def test_other_errno_classifies_transient(self):
        err = classify_oserror(OSError(errno.EIO, "io"))
        assert isinstance(err, TransientStorageError)

    def test_is_transient_covers_retryable_errnos(self):
        assert is_transient(OSError(errno.EIO, "io"))
        assert is_transient(OSError(errno.ENOSPC, "full"))
        assert not is_transient(OSError(errno.ENOENT, "missing"))

    def test_retry_spec_backoff_is_bounded(self):
        spec = RetrySpec(attempts=8, base_delay_s=0.005, max_delay_s=0.25)
        delays = [spec.delay(a) for a in range(1, 9)]
        # The cap bounds the base delay; jitter may add up to +jitter on top.
        assert all(0.0 <= d <= 0.25 * (1.0 + spec.jitter) for d in delays)

    def test_default_retry_is_bounded(self):
        assert DEFAULT_RETRY.attempts >= 2
        assert DEFAULT_RETRY.max_delay_s <= 1.0


class TestReadBytes:
    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_bytes(tmp_path / "nope.bin")

    def test_read_eio_retried(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(b"data")
        plan = DiskFaultPlan(seed=5, read_eio_rate=0.5)
        with faultfs_session(plan) as ffs:
            for _ in range(20):
                assert read_bytes(p, retry=FAST_RETRY) == b"data"
            assert ffs.counts.get("read_eio", 0) > 0

    def test_persistent_eio_surfaces(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(b"data")
        with faultfs_session(DiskFaultPlan(seed=0, read_eio_rate=1.0)):
            with pytest.raises(StorageError):
                read_bytes(p, retry=FAST_RETRY)


class TestQuarantine:
    def test_renames_to_corrupt(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_bytes(b"bad")
        dest = quarantine(p)
        assert dest == tmp_path / "a.json.corrupt"
        assert not p.exists() and dest.read_bytes() == b"bad"

    def test_never_overwrites_prior_evidence(self, tmp_path):
        p = tmp_path / "a.json"
        (tmp_path / "a.json.corrupt").write_bytes(b"first")
        p.write_bytes(b"second")
        dest = quarantine(p)
        assert dest == tmp_path / "a.json.corrupt.1"
        assert (tmp_path / "a.json.corrupt").read_bytes() == b"first"
        assert dest.read_bytes() == b"second"

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine(tmp_path / "ghost") is None

    def test_bypasses_active_faultfs(self, tmp_path):
        """The repair path must not itself fail under injected rename
        faults — quarantine uses raw os.replace."""
        p = tmp_path / "a.json"
        p.write_bytes(b"bad")
        with faultfs_session(DiskFaultPlan(seed=0, rename_fail_rate=1.0)):
            dest = quarantine(p)
        assert dest is not None and dest.exists()


class TestFaultFSDeterminism:
    def test_same_seed_same_fault_sequence(self, tmp_path):
        def run(seed):
            ffs = FaultFS(DiskFaultPlan(seed=seed, torn_write_rate=0.5))
            with faultfs_session(ffs):
                outcomes = []
                for i in range(20):
                    try:
                        atomic_write_bytes(tmp_path / f"f{i}", b"x" * 64,
                                           retry=ONE_SHOT)
                        outcomes.append("ok")
                    except StorageError:
                        outcomes.append("fault")
            return outcomes, dict(ffs.counts)

        a = run(42)
        b = run(42)
        c = run(43)
        assert a == b
        assert a != c  # different seed, different sequence (overwhelmingly)

    def test_zero_rate_plan_installs_nothing(self):
        with faultfs_session(DiskFaultPlan(seed=0)) as ffs:
            assert ffs is None

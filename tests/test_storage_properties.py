"""Property-based damage tests: for ANY corruption (truncate / bit-flip /
garble at an arbitrary offset) of any artifact type, the storage layer must
stay *honest* — it either returns exactly the original data, or it reports
damage; it never silently returns wrong data. And ``repro fsck`` must
classify every damaged file into its taxonomy (no artifact is ever left
"unclassifiable") without crashing.

A flipped bit may land in slack bytes the consumer never interprets (zip
padding, JSON whitespace, the envelope's provenance field), so the
properties assert one-sidedly: *if* the load succeeds, the payload is
bit-identical to what was written.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.harness.journal import RunJournal, _entry_crc, scan_journal_lines
from repro.smt.checkpoint import CheckpointError, load_checkpoint, parse_snapshot_payload
from repro.storage import (
    ArtifactError,
    ArtifactVersionError,
    StorageError,
    fsck_file,
    pack_artifact,
    unpack_artifact,
)
from repro.storage.fsck import STATUSES

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _damage(blob: bytes, mode: str, offset: int, garbage: bytes) -> bytes:
    """Apply one corruption at a blob-relative offset."""
    if not blob:
        return garbage
    offset %= len(blob)
    if mode == "truncate":
        return blob[:offset]
    if mode == "flip":
        out = bytearray(blob)
        out[offset] ^= 1 << (offset % 8)
        return bytes(out)
    # garble: overwrite a window with arbitrary bytes
    return blob[:offset] + garbage + blob[offset + len(garbage):]


_DAMAGE = st.tuples(
    st.sampled_from(["truncate", "flip", "garble"]),
    st.integers(min_value=0, max_value=10_000),
    st.binary(min_size=1, max_size=16),
)


class TestEnvelopeHonesty:
    @given(payload=st.binary(min_size=0, max_size=300), damage=_DAMAGE)
    @_SETTINGS
    def test_unpack_never_returns_wrong_payload(self, payload, damage):
        """Any corruption of an enveloped artifact either surfaces as
        ArtifactError or leaves the payload bit-identical (the flip landed
        outside what the checksum protects is impossible — CRC covers the
        whole payload; it can land in ignored header slack only)."""
        blob = pack_artifact("prop-test", 1, payload)
        bad = _damage(blob, *damage)
        try:
            _, out = unpack_artifact(bad)
        except ArtifactError:
            return  # honest: damage was reported
        assert out == payload  # honest: data survived bit-for-bit

    @given(payload=st.binary(min_size=0, max_size=300), damage=_DAMAGE)
    @_SETTINGS
    def test_fsck_always_classifies(self, payload, damage, tmp_path):
        blob = _damage(pack_artifact("prop-test", 1, payload), *damage)
        p = tmp_path / "artifact.snap"
        p.write_bytes(blob)
        entry = fsck_file(p, repair=False)
        assert entry is not None and entry.status in STATUSES

    def test_other_format_or_version_is_refused(self):
        """An intact envelope loads only as the format and schema version
        the reader expects; there is no load-forward path."""
        blob = pack_artifact("prop-test", 1, b"payload")
        assert unpack_artifact(blob, "prop-test", 1)[1] == b"payload"
        with pytest.raises(ArtifactVersionError):
            unpack_artifact(blob, expect_format="prop-test", expect_version=2)
        with pytest.raises(ArtifactVersionError):
            unpack_artifact(blob, expect_format="other-format")


class TestCheckpointHonesty:
    @given(damage=_DAMAGE, data=st.binary(min_size=1, max_size=200))
    @_SETTINGS
    def test_parse_snapshot_honest(self, damage, data):
        """A damaged checkpoint frame either raises CheckpointError or
        yields the original pickled payload exactly."""
        from repro.storage import pack_artifact as pack

        blob = pack("smt-checkpoint", 2, data)
        bad = _damage(blob, *damage)
        try:
            out = parse_snapshot_payload("prop.snap", bad)
        except CheckpointError:
            return
        assert out == data

    @given(damage=_DAMAGE)
    @_SETTINGS
    def test_damaged_checkpoint_load_is_honest(self, damage, tmp_path):
        """load_checkpoint on a damaged file either raises CheckpointError
        or returns the snapshot unchanged — never silently wrong data."""
        import pickle

        from repro.smt.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
        from repro.storage import write_artifact

        meta = {"kind": "adts", "mix": "mix01", "seed": 0}
        bundle = {"processor": "sentinel-state", "controller": None,
                  "injector": None, "quantum_index": 7, "cycle": 4480,
                  "meta": meta}
        path = tmp_path / "cell.snap"
        write_artifact(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                       pickle.dumps(bundle))
        blob = path.read_bytes()
        path.write_bytes(_damage(blob, *damage))
        try:
            loaded = load_checkpoint(path, expect_meta=meta)
        except CheckpointError:
            return  # honest: damage (or mismatch) was reported
        assert loaded.quantum_index == 7
        assert loaded.processor == "sentinel-state"


class TestJournalHonesty:
    _ENTRIES = st.lists(
        st.tuples(
            st.text(st.characters(codec="ascii", exclude_characters='\n\r'),
                    min_size=1, max_size=12),
            st.dictionaries(st.sampled_from(["ipc", "switches", "x"]),
                            st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10),
                            max_size=3),
        ),
        min_size=1, max_size=6, unique_by=lambda kv: kv[0],
    )

    @given(entries=_ENTRIES, damage=_DAMAGE)
    @_SETTINGS
    def test_recover_never_invents_records(self, entries, damage, tmp_path):
        """Every record recover() returns must be one that was actually
        written (key and payload both) — salvage can lose damaged records
        but can never fabricate or mutate one."""
        import tempfile

        # fresh dir per example: hypothesis reuses the function-scoped
        # tmp_path, and a journal must not accumulate across examples
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "j.jsonl"
        written = {}
        j = RunJournal(path)
        for key, payload in entries:
            j.record(key, payload)
            written[key] = json.loads(json.dumps(payload, default=str))
        j.close()
        blob = path.read_bytes()
        path.write_bytes(_damage(blob, *damage))
        j2 = RunJournal(path)
        j2.recover()
        for key in list(written):
            got = j2.get(key)
            if got is not None:
                assert got == written[key]
        j2.close()

    @given(entries=_ENTRIES, damage=_DAMAGE)
    @_SETTINGS
    def test_scan_classifies_and_fsck_survives(self, entries, damage, tmp_path):
        import tempfile

        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "j.jsonl"
        j = RunJournal(path)
        for key, payload in entries:
            j.record(key, payload)
        j.close()
        blob = path.read_bytes()
        path.write_bytes(_damage(blob, *damage))
        entry = fsck_file(path, repair=False)
        assert entry is not None and entry.status in STATUSES

    @given(entries=_ENTRIES)
    @_SETTINGS
    def test_undamaged_journal_roundtrips(self, entries, tmp_path):
        import tempfile

        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "j.jsonl"
        j = RunJournal(path)
        for key, payload in entries:
            j.record(key, payload)
        j.close()
        j2 = RunJournal(path)
        assert j2.load() == len(entries)
        for key, payload in entries:
            assert j2.get(key) == json.loads(json.dumps(payload, default=str))
        j2.close()
        assert fsck_file(path, repair=False).status == "healthy"

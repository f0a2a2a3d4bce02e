"""Property-based damage tests: for ANY corruption (truncate / bit-flip /
garble at an arbitrary offset) of any artifact type, the storage layer must
stay *honest* — it either returns exactly the original data, or it reports
damage; it never silently returns wrong data. And ``repro fsck`` must
classify every damaged file into its taxonomy (no artifact is ever left
"unclassifiable") without crashing.

A flipped bit may land in bytes the consumer never interprets (JSON
whitespace, the artifact block's provenance field), so the properties
assert one-sidedly: *if* the load succeeds, the payload is identical to
what was written.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.harness.journal import RunJournal, _entry_crc, scan_journal_lines
from repro.storage import (
    ArtifactError,
    ArtifactVersionError,
    embed_json_artifact,
    fsck_file,
    load_json_artifact,
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


_DOCUMENTS = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda k: k != "artifact"),
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    max_size=6,
)


def _write_document(path: Path, doc: dict, fmt: str = "prop-test") -> bytes:
    """Write ``doc`` as a checksummed JSON artifact; returns its bytes."""
    blob = json.dumps(embed_json_artifact(doc, fmt, 1), indent=2, sort_keys=True)
    path.write_text(blob)
    return blob.encode("utf-8")


class TestJsonArtifactHonesty:
    @given(doc=_DOCUMENTS, damage=_DAMAGE)
    @_SETTINGS
    def test_load_never_returns_wrong_document(self, doc, damage, tmp_path):
        """Any corruption of a JSON artifact either surfaces as
        ArtifactError or leaves the document identical: a reader that
        names the format never falls back to unchecked plain JSON."""
        p = tmp_path / "doc.json"
        p.write_bytes(_damage(_write_document(p, doc), *damage))
        try:
            _, out = load_json_artifact(p, expect=("prop-test", 1))
        except ArtifactError:
            return  # honest: damage was reported
        assert out == json.loads(json.dumps(doc))

    @given(doc=_DOCUMENTS, damage=_DAMAGE)
    @_SETTINGS
    def test_fsck_always_classifies(self, doc, damage, tmp_path):
        p = tmp_path / "doc.json"
        p.write_bytes(_damage(_write_document(p, doc), *damage))
        entry = fsck_file(p, repair=False)
        assert entry is not None and entry.status in STATUSES

    def test_other_format_is_refused(self, tmp_path):
        """An intact document loads only as the format the reader expects;
        there is no load-forward path."""
        p = tmp_path / "doc.json"
        _write_document(p, {"ipc": 1.5})
        assert load_json_artifact(p, expect=("prop-test", 1))[1] == {"ipc": 1.5}
        with pytest.raises(ArtifactVersionError):
            load_json_artifact(p, expect=("other-format", 1))
        with pytest.raises(ArtifactVersionError):
            load_json_artifact(p, expect=("prop-test", 2))

    def test_no_single_bit_flip_of_a_store_entry_is_served(self, tmp_path):
        """Exhaustively: every one-bit flip of a result-store entry either
        raises or loads the entry as written."""
        from repro.service import ResultStore
        from repro.service.identity import fields_digest

        store = ResultStore(tmp_path / "rs", shards=1)
        fields = {"mix": "mix05", "seed": 3}
        store.put(fields, {"ipc": 1.5, "switches": 4})
        path = store.path_for(fields_digest(fields))
        blob = path.read_bytes()
        _, written = load_json_artifact(path, expect=("sim-result", 1))
        wrong = []
        for bit in range(len(blob) * 8):
            bad = bytearray(blob)
            bad[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(bad))
            try:
                _, got = load_json_artifact(path, expect=("sim-result", 1))
            except ArtifactError:
                continue
            if got != written:
                wrong.append(bit)
        assert wrong == []


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

"""`repro fsck`: classification, repair, quarantine, exit-code contract.

The invariants pinned here: a dry run never touches disk; a repair run
converges (a second pass over the same tree finds nothing left to do);
repairs never lose data that validated (journal salvage keeps every intact
record); and the exit code is non-zero exactly when something was
quarantined.
"""

import json

import pytest

from repro.behavior.profile import PROFILE_FORMAT, PROFILE_VERSION
from repro.harness.chaosday import CAMPAIGN_FORMAT, CAMPAIGN_VERSION
from repro.harness.cli import main
from repro.harness.journal import RunJournal, _entry_crc
from repro.service.dlq import DLQ_FORMAT, DLQ_VERSION
from repro.service.loadgen import RECORDING_FORMAT, RECORDING_VERSION
from repro.service.resultstore import (
    DIVERGENCE_FORMAT,
    DIVERGENCE_VERSION,
    RESULT_FORMAT,
    RESULT_VERSION,
)
from repro.storage.artifact import embed_json_artifact
from repro.storage.fsck import fsck_file, fsck_tree

#: Every checksummed JSON format and the one version its reader reads.
FAMILIES = [
    (RESULT_FORMAT, RESULT_VERSION),
    (PROFILE_FORMAT, PROFILE_VERSION),
    (CAMPAIGN_FORMAT, CAMPAIGN_VERSION),
    (RECORDING_FORMAT, RECORDING_VERSION),
    (DLQ_FORMAT, DLQ_VERSION),
    (DIVERGENCE_FORMAT, DIVERGENCE_VERSION),
]


def _crc_line(key, payload):
    return json.dumps({"key": key, "payload": payload, "crc": _entry_crc(key, payload)})


def _write_artifact(path, payload=None):
    """A checksummed JSON document artifact at ``path``."""
    doc = embed_json_artifact(payload or {"ipc": 1.5, "notes": "x" * 40}, "smoke", 1)
    path.write_text(json.dumps(doc, sort_keys=True))


def _flip(path, needle: bytes, offset: int, mask: int) -> None:
    """XOR ``mask`` into the byte ``offset`` bytes into the first
    ``needle`` in ``path``."""
    blob = bytearray(path.read_bytes())
    blob[blob.index(needle) + offset] ^= mask
    path.write_bytes(bytes(blob))


def _flip_ipc(path) -> None:
    """One payload bit: the stored IPC 1.5 reads 7.5."""
    _flip(path, b'"ipc": 1.5', len('"ipc": '), 0x06)


class TestClassification:
    def test_healthy_json_artifact(self, tmp_path):
        p = tmp_path / "t.json"
        _write_artifact(p)
        entry = fsck_file(p)
        assert entry.status == "healthy" and entry.action == "none"

    def test_bitrotted_json_artifact_is_corrupt(self, tmp_path):
        p = tmp_path / "t.json"
        _write_artifact(p)
        _flip_ipc(p)
        entry = fsck_file(p, repair=False)
        assert entry.status == "corrupt"

    def test_truncated_json_artifact_is_corrupt(self, tmp_path):
        p = tmp_path / "t.json"
        _write_artifact(p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        assert fsck_file(p, repair=False).status == "corrupt"

    def test_artifact_block_under_damaged_key_is_corrupt(self, tmp_path):
        """One bit flipped in the key ``"artifact"`` leaves an
        artifact-shaped block under another key: a checksummed document
        that lost its checksum, not plain JSON."""
        p = tmp_path / "t.json"
        _write_artifact(p)
        _flip(p, b'"artifact":', 1, 0x02)  # "artifact" -> "crtifact"
        entry = fsck_file(p, repair=True)
        assert (entry.status, entry.action) == ("corrupt", "quarantined")
        assert "crtifact" in entry.detail

    @pytest.mark.parametrize("fmt, version", FAMILIES, ids=[f for f, _ in FAMILIES])
    def test_foreign_version_is_corrupt(self, tmp_path, fmt, version):
        """The CRC does not cover the artifact block, so a document of a
        known format stamped with a version its reader refuses is
        checksum-valid; fsck refuses it as the reader does."""
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(embed_json_artifact({"v": 1}, fmt, version + 6)))
        assert fsck_file(p, repair=False).status == "corrupt"
        entry = fsck_file(p, repair=True)
        assert (entry.status, entry.action) == ("corrupt", "quarantined")
        assert not p.exists()

    def test_journal_without_crc_is_corrupt(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(json.dumps({"key": "a", "payload": {"ipc": 9.9}}) + "\n"
                     + _crc_line("b", {"ipc": 2.0}) + "\n")
        assert fsck_file(p, repair=False).status == "corrupt"

    def test_journal_torn_tail(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(_crc_line("a", {"v": 1}) + "\n" + '{"key": "b", "pa')
        assert fsck_file(p, repair=False).status == "torn-tail"

    def test_journal_interior_damage_is_corrupt(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text("%%garbage%%\n" + _crc_line("a", {"v": 1}) + "\n")
        assert fsck_file(p, repair=False).status == "corrupt"

    def test_stale_temp(self, tmp_path):
        p = tmp_path / ".j.jsonl.tmp.1234.0"
        p.write_bytes(b"partial")
        assert fsck_file(p, repair=False).status == "stale-temp"

    def test_non_artifact_files_skipped(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "j.jsonl.lock").write_text("1234")
        (tmp_path / "old.json.corrupt").write_bytes(b"evidence")
        (tmp_path / "cell.snap").write_bytes(b"not an artifact format any more")
        report = fsck_tree(tmp_path, repair=True)
        assert report.entries == []
        assert (tmp_path / "cell.snap").exists()


class TestDryRun:
    def test_dry_run_touches_nothing(self, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"garbage")
        (tmp_path / "j.jsonl").write_text('{"key": "a", "payload": {}}\n')
        (tmp_path / ".x.tmp.1.1").write_bytes(b"t")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        report = fsck_tree(tmp_path, repair=False)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert before == after
        assert report.exit_code == 0  # dry run never quarantines
        assert all(e.action == "none" for e in report.entries)


class TestRepair:
    def test_repair_converges(self, tmp_path):
        """After one repair pass, a second pass finds nothing to do."""
        _write_artifact(tmp_path / "good.json")
        bad = tmp_path / "bad.json"
        _write_artifact(bad)
        _flip_ipc(bad)
        (tmp_path / "baseline.json").write_text(json.dumps({"metrics": {"ipc": 1.0}}))
        (tmp_path / "torn.jsonl").write_text(
            _crc_line("a", {"v": 1}) + "\n" + '{"key": "b'
        )
        (tmp_path / ".x.tmp.1.1").write_bytes(b"t")

        first = fsck_tree(tmp_path, repair=True)
        assert first.exit_code == 1  # one quarantine happened
        assert {e.status for e in first.entries} == {
            "healthy", "corrupt", "migratable", "torn-tail", "stale-temp"
        }
        second = fsck_tree(tmp_path, repair=True)
        assert second.exit_code == 0
        # Plain JSON is never rewritten (fsck must not dirty checked-in
        # files), so it stays migratable; everything else is now healthy.
        assert {e.path: e.status for e in second.entries if e.status != "healthy"} == {
            str(tmp_path / "baseline.json"): "migratable"
        }

    def test_corrupt_file_quarantined_not_deleted(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"artifact": ' + b"\xff" * 30)
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 1
        assert not p.exists()
        assert (tmp_path / "bad.json.corrupt").exists()

    def test_journal_salvage_keeps_intact_records(self, tmp_path):
        p = tmp_path / "j.jsonl"
        good = [("k%d" % i, {"ipc": float(i)}) for i in range(5)]
        lines = [_crc_line(k, v) for k, v in good]
        lines.insert(2, "###corrupt###")
        # A record without its CRC is damage too, never a newer value.
        lines.insert(4, json.dumps({"key": "k1", "payload": {"ipc": 9.9}}))
        p.write_text("\n".join(lines) + "\n")
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 1  # original quarantined
        j = RunJournal(p)
        assert j.load() == 5
        for k, v in good:
            assert j.get(k) == v
        assert all("crc" in json.loads(line) for line in p.read_text().splitlines())

    def test_torn_tail_truncation_keeps_complete_records(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(_crc_line("a", {"v": 1}) + "\n" + '{"key": "b", "pay')
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 0  # truncation is a repair, not a quarantine
        j = RunJournal(p)
        assert j.load() == 1 and j.get("a") == {"v": 1}

    def test_edited_last_record_is_quarantined_not_truncated(self, tmp_path):
        """A complete, newline-terminated last record whose payload was
        edited (its CRC kept) is damage, not a torn tail: fsck keeps the
        evidence and salvages only the records that validate."""
        p = tmp_path / "j.jsonl"
        edited = json.loads(_crc_line("b", {"ipc": 2.0}))
        edited["payload"]["ipc"] = 9.9
        p.write_text(_crc_line("a", {"ipc": 1.0}) + "\n" + json.dumps(edited) + "\n")
        report = fsck_tree(tmp_path, repair=True)
        assert report.exit_code == 1
        assert [(e.status, e.action) for e in report.entries] == [("corrupt", "quarantined")]
        assert (tmp_path / "j.jsonl.corrupt").exists()
        assert [json.loads(line)["key"] for line in p.read_text().splitlines()] == ["a"]


class TestCLI:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        _write_artifact(tmp_path / "a.json")
        assert main(["fsck", str(tmp_path)]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_exit_one_iff_quarantined(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_bytes(b"junk-not-an-artifact")
        assert main(["fsck", str(tmp_path)]) == 1
        assert main(["fsck", str(tmp_path)]) == 0  # already quarantined

    def test_json_report(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_bytes(b"junk")
        rc = main(["fsck", str(tmp_path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == report["exit_code"] == 1
        assert report["counts"]["corrupt"] == 1

    def test_dry_run_flag(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b"junk")
        assert main(["fsck", str(tmp_path), "--dry-run"]) == 0
        assert p.exists()

    def test_missing_root_is_a_usage_error(self, tmp_path, capsys):
        """A mistyped path must not pass the audit: exit 2 with one
        stderr line naming it, and nothing created."""
        missing = tmp_path / "does-not-exist"
        for flags in ([], ["--dry-run"], ["--json"]):
            assert main(["fsck", str(missing), *flags]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1 and str(missing) in err
        assert not missing.exists()


class TestDivergenceTaxonomy:
    def _store_with_divergence(self, tmp_path):
        from repro.harness.runner import fields_digest
        from repro.service.resultstore import ResultStore

        store = ResultStore(tmp_path / "rs")
        fields = {"mix": "mix05", "seed": 1}
        digest = fields_digest(fields)
        store.put(fields, {"ipc": 1.0})
        store.quarantine_divergent(
            fields,
            primary_payload={"ipc": 1.0}, shadow_payload={"ipc": 2.0},
        )
        return store, digest

    def test_divergent_evidence_is_reported_but_not_damage(self, tmp_path):
        store, digest = self._store_with_divergence(tmp_path)
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 0  # contained damage: never fails fsck
        assert report.counts.get("divergent") == 1
        entry = next(e for e in report.entries if e.status == "divergent")
        assert entry.action == "none"
        assert store.divergent_path(digest).exists()  # evidence untouched

    def test_fsck_file_classifies_divergent_by_suffix(self, tmp_path):
        store, digest = self._store_with_divergence(tmp_path)
        entry = fsck_file(store.divergent_path(digest))
        assert entry is not None and entry.status == "divergent"

    def test_live_divergent_marked_entry_is_quarantined(self, tmp_path):
        """fsck exit 0 must imply no divergent-marked entry can be served:
        a live sim-result whose integrity field says anything but
        unverified/verified is real damage."""
        from repro.storage.artifact import embed_json_artifact

        from repro.harness.runner import fields_digest
        from repro.service.resultstore import ResultStore

        store = ResultStore(tmp_path / "rs")
        fields = {"mix": "mix05", "seed": 2}
        digest = fields_digest(fields)
        sealed = embed_json_artifact(
            {"identity": digest, "request": fields,
             "payload": {"ipc": 1.0}, "integrity": "divergent"},
            "sim-result", 1,
        )
        path = store.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(sealed))
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 1
        assert any("integrity" in (e.detail or "") for e in report.quarantined)
        assert not path.exists()
        # Convergence: the quarantined copy is evidence now, not damage.
        assert fsck_tree(store.root, repair=True).exit_code == 0

    def test_verified_entry_is_healthy(self, tmp_path):
        from repro.harness.runner import fields_digest
        from repro.service.resultstore import ResultStore

        store = ResultStore(tmp_path / "rs")
        fields = {"mix": "mix05", "seed": 3}
        digest = fields_digest(fields)
        store.put(fields, {"ipc": 1.0}, integrity="verified")
        report = fsck_tree(store.root, repair=True)
        assert report.exit_code == 0
        assert report.counts == {"healthy": 1}

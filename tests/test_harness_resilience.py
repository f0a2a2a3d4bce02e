"""Tests for harness hardening: RunConfig validation, the JSONL run
journal (locking, stale-lock breaking), and journal-resumed sweeps."""

import json

import pytest

from repro.core.thresholds import ThresholdConfig
from repro.harness import run_mix_average
from repro.harness.errors import ConfigError, HarnessError, JournalError
from repro.harness.journal import RunJournal
from repro.harness.runner import (
    BatchRunSpec,
    RunConfig,
    fields_digest,
    run_fields,
    run_key,
)
from repro.harness.sweep import threshold_type_grid
from repro.smt.config import SMTConfig


def tiny_run(**over):
    base = dict(
        mix=["gzip", "mcf"],
        num_threads=2,
        quantum_cycles=256,
        quanta=2,
        warmup_quanta=1,
        machine=SMTConfig(num_threads=2),
    )
    base.update(over)
    return RunConfig(**base)


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_threads", 0),
            ("quanta", 0),
            ("warmup_quanta", -1),
            ("quantum_cycles", 0),
            ("policy", "round_robin_of_doom"),
            ("mix", "mix99"),
            ("seed", -1),
        ],
    )
    def test_bad_field_raises_config_error_naming_it(self, field, value):
        with pytest.raises(ConfigError) as exc:
            tiny_run(**{field: value})
        assert exc.value.field == field
        assert field in str(exc.value)

    def test_named_mix_caps_num_threads_at_its_width(self):
        with pytest.raises(ConfigError) as exc:
            tiny_run(mix="mix05", num_threads=9)
        assert exc.value.field == "num_threads"
        tiny_run(mix="mix05", num_threads=8)
        tiny_run(num_threads=9)  # an app list runs one thread per app

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            tiny_run(num_threads=-3)
        with pytest.raises(HarnessError):
            tiny_run(quanta=-1)

    def test_valid_config_constructs(self):
        cfg = tiny_run(warmup_quanta=0)
        assert cfg.total_quanta() == 2


class TestRunMixAverage:
    def test_empty_mixes_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_mix_average([], tiny_run())

    def test_single_mix_average(self):
        avg = run_mix_average(["mix01"], tiny_run(mix="mix01"))
        assert avg["mean_ipc"] > 0


class TestRunJournal:
    def test_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        key = run_key(BatchRunSpec(config=tiny_run()))
        journal.record(key, {"ipc": 3.25})
        fresh = RunJournal(journal.path)
        assert fresh.load() == 1
        assert fresh.has(key)
        assert fresh.get(key) == {"ipc": 3.25}

    def test_cell_key_is_order_independent(self):
        """A cell's key digests its run fields in sorted-key order."""
        fields = run_fields(BatchRunSpec(config=tiny_run()))
        reordered = dict(reversed(list(fields.items())))
        assert fields_digest(reordered) == fields_digest(fields)

    def test_truncated_tail_is_tolerated(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record("k1", {"ipc": 1.0})
        journal.record("k2", {"ipc": 2.0})
        # Simulate a kill mid-append: the final line is half-written.
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k3", "payl')
        fresh = RunJournal(journal.path)
        assert fresh.load() == 2
        assert fresh.get("k2") == {"ipc": 2.0}
        assert not fresh.has("k3")

    def test_midfile_corruption_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record("k1", {"ipc": 1.0})
        journal.record("k2", {"ipc": 2.0})
        journal.close()
        first, second = journal.path.read_text().splitlines()
        journal.path.write_text(f"{first}\n!!garbage!!\n{second}\n")
        with pytest.raises(JournalError, match="line 2"):
            RunJournal(journal.path).load()

    def test_record_without_crc_is_never_served(self, tmp_path):
        """Stripping a record's checksum must not make an edit to it
        trusted: a complete record without its CRC is damage wherever it
        sits, refused by ``load()`` and salvaged around by ``recover()``."""
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record("a", {"ipc": 1.0})
        journal.close()
        entry = json.loads(journal.path.read_text())
        del entry["crc"]
        entry["payload"]["ipc"] = 9.9
        journal.path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(JournalError, match="line 1"):
            RunJournal(journal.path).load()

        with RunJournal(journal.path) as later:
            later.record("b", {"ipc": 2.0})
        with pytest.raises(JournalError, match="line 1"):
            RunJournal(journal.path).load()
        with RunJournal(journal.path) as salvaged:
            info = salvaged.recover()
            assert info["quarantined"] and info["dropped"] == 1
            assert salvaged.get("a") is None
            assert salvaged.get("b") == {"ipc": 2.0}

    @staticmethod
    def _edit_last_record(journal):
        """Record ``a`` and ``b``, then edit ``b``'s payload in place,
        keeping its ``crc`` and its newline: a complete record that fails
        its checksum, which no killed append can leave behind."""
        journal.record("a", {"ipc": 1.0})
        journal.record("b", {"ipc": 2.0})
        journal.close()
        first, second = journal.path.read_text().splitlines()
        entry = json.loads(second)
        entry["payload"]["ipc"] = 9.9
        journal.path.write_text(f"{first}\n{json.dumps(entry)}\n")

    def test_edited_last_record_is_damage_not_a_torn_tail(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        self._edit_last_record(journal)
        with pytest.raises(JournalError, match="line 2"):
            RunJournal(journal.path).load()

    def test_recover_quarantines_an_edited_last_record(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        self._edit_last_record(journal)
        with RunJournal(journal.path) as salvaged:
            info = salvaged.recover()
            assert info["quarantined"] and info["dropped"] == 1
            assert not info["torn_tail"]
            assert salvaged.get("a") == {"ipc": 1.0}
            assert salvaged.get("b") is None
        assert (tmp_path / "j.jsonl.corrupt").exists()
        assert RunJournal(journal.path).load() == 1

    def test_clear_removes_file(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record("k", {"ipc": 1.0})
        journal.clear()
        assert len(journal) == 0
        assert not journal.path.exists()

    def test_load_missing_file_is_empty(self, tmp_path):
        assert RunJournal(tmp_path / "absent.jsonl").load() == 0


class TestSweepResume:
    THRESHOLDS = (1.0, 99.0)
    HEURISTICS = ("type1",)
    MIXES = ["mix01", "mix02"]

    def _grid(self, journal=None):
        return threshold_type_grid(
            tiny_run(mix="mix01"),
            mixes=self.MIXES,
            thresholds=self.THRESHOLDS,
            heuristics=self.HEURISTICS,
            journal=journal,
        )

    def test_resumed_sweep_matches_uninterrupted(self, tmp_path, monkeypatch,
                                                 reference_grid):
        baseline = reference_grid(tiny_run(mix="mix01"), self.MIXES,
                                  self.THRESHOLDS, self.HEURISTICS)

        # First pass with a journal, killed after the first mix's batch:
        # keep only the first two journaled cells.
        journal = RunJournal(tmp_path / "grid.jsonl")
        self._grid(journal=journal)
        lines = journal.path.read_text().splitlines()
        assert len(lines) == len(self.THRESHOLDS) * len(self.MIXES)
        journal.path.write_text("\n".join(lines[:2]) + "\n")

        # Resume: only the non-journaled cells may be simulated.
        import repro.harness.sweep as sweep_mod

        real_run_batch = sweep_mod.run_batch
        simulated = []

        def counting_run_batch(specs, progress=None):
            simulated.extend(specs)
            return real_run_batch(specs, progress=progress)

        monkeypatch.setattr(sweep_mod, "run_batch", counting_run_batch)
        resumed_journal = RunJournal(journal.path)
        assert resumed_journal.load() == 2
        resumed = self._grid(journal=resumed_journal)

        assert len(simulated) == len(lines) - 2
        assert resumed == baseline

    def test_journal_key_guards_run_parameters(self):
        def key(cfg):
            return run_key(BatchRunSpec(
                config=cfg, heuristic="type3",
                thresholds=ThresholdConfig(ipc_threshold=2.0)))

        assert key(tiny_run()) != key(tiny_run(quanta=3))


import repro as _repro_pkg
from pathlib import Path as _Path

#: The src/ directory to put on sys.path in helper subprocesses.
ROOT_SRC = _Path(_repro_pkg.__file__).resolve().parents[1]


class TestJournalLocking:
    def test_lock_file_stamped_with_holder_pid(self, tmp_path):
        import os

        with RunJournal(tmp_path / "j.jsonl") as journal:
            journal.record("k", {"ipc": 1.0})
            assert journal.lock_path.exists()
            assert journal.lock_path.read_text().strip() == str(os.getpid())

    def test_same_process_journals_share_the_lock(self, tmp_path):
        # flock is per open-file-description: without the process-local
        # registry, a second journal on the same path would deadlock or
        # spuriously conflict with its own process.
        a = RunJournal(tmp_path / "j.jsonl")
        b = RunJournal(tmp_path / "j.jsonl")
        a.record("k1", {"ipc": 1.0})
        b.record("k2", {"ipc": 2.0})  # no JournalError
        a.close()
        b.record("k3", {"ipc": 3.0})  # refcount keeps the lock alive
        b.close()

    def test_cross_process_conflict_raises_with_holder_pid(self, tmp_path):
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "j.jsonl"
        holder = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(f"""
                import sys, time
                sys.path.insert(0, {repr(str(ROOT_SRC))})
                from repro.harness.journal import RunJournal
                j = RunJournal({repr(str(path))})
                j.record("held", {{"ipc": 1.0}})
                print("locked", flush=True)
                time.sleep(30)
            """)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            mine = RunJournal(path)
            with pytest.raises(JournalError, match=str(holder.pid)):
                mine.record("mine", {"ipc": 2.0})
        finally:
            holder.kill()
            holder.wait()

    def test_lock_dies_with_the_holder_process(self, tmp_path):
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "j.jsonl"
        subprocess.run(
            [sys.executable, "-c", textwrap.dedent(f"""
                import sys
                sys.path.insert(0, {repr(str(ROOT_SRC))})
                from repro.harness.journal import RunJournal
                RunJournal({repr(str(path))}).record("theirs", {{"ipc": 1.0}})
            """)],
            check=True,
        )
        # The writer exited (flock released); a new writer proceeds.
        with RunJournal(path) as journal:
            assert journal.load() == 1
            journal.record("mine", {"ipc": 2.0})


class TestBestCellTieBreaking:
    def _sweep_with_ipc(self, ipc):
        from repro.harness.sweep import SweepResult

        cells = sorted(ipc)
        return SweepResult(
            thresholds=sorted({c[0] for c in cells}),
            heuristics=sorted({c[1] for c in cells}),
            mixes=["mix01"],
            ipc=dict(ipc),
        )

    def test_tie_broken_by_lowest_threshold_then_name(self):
        tied = {
            (3.0, "type4"): 2.5,
            (2.0, "type3"): 2.5,
            (2.0, "type1"): 2.5,
            (1.0, "type2"): 1.0,
        }
        sweep = self._sweep_with_ipc(tied)
        assert sweep.best_cell() == (2.0, "type1")

    def test_tie_break_independent_of_insertion_order(self):
        # A journal-resumed or parallel sweep populates the dict in a
        # different order than a fresh in-process sweep; the winner must not
        # change with it.
        items = [((2.0, "type3"), 2.5), ((1.0, "type4"), 2.5), ((3.0, "type1"), 2.0)]
        forward = self._sweep_with_ipc(dict(items))
        backward = self._sweep_with_ipc(dict(reversed(items)))
        assert forward.best_cell() == backward.best_cell() == (1.0, "type4")

    def test_unique_max_still_wins(self):
        sweep = self._sweep_with_ipc({(1.0, "type1"): 1.0, (5.0, "type4"): 3.0})
        assert sweep.best_cell() == (5.0, "type4")


class TestStaleLockBreaking:
    def test_dead_holder_stamp_is_broken(self, tmp_path):
        """A lock flocked by an orphan (fork-inherited fd) but stamped with
        a dead PID is stale; a new writer breaks it and proceeds."""
        import os
        import signal as _signal
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "j.jsonl"
        # The parent takes the lock (stamping its PID), forks a child that
        # inherits the flocked fd, then exits: the stamp now names a dead
        # process while the orphan's inherited fd still holds the flock.
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(f"""
                import os, sys, time
                sys.path.insert(0, {repr(str(ROOT_SRC))})
                from repro.harness.journal import RunJournal
                j = RunJournal({repr(str(path))})
                j.record("held", {{"ipc": 1.0}})
                pid = os.fork()
                if pid == 0:
                    time.sleep(60)
                    os._exit(0)
                print(pid, flush=True)
                os._exit(0)  # die without releasing; the orphan holds on
            """)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        orphan = int(proc.stdout.strip())
        try:
            with RunJournal(path) as mine:
                assert mine.load() == 1
                mine.record("mine", {"ipc": 2.0})  # breaks the stale lock
            assert RunJournal(path).load() == 2
        finally:
            os.kill(orphan, _signal.SIGKILL)

    def test_live_holder_is_never_broken(self, tmp_path):
        """Same flock-held-elsewhere shape, but the stamped PID is alive:
        the lock must be respected, not stolen."""
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "j.jsonl"
        holder = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(f"""
                import sys, time
                sys.path.insert(0, {repr(str(ROOT_SRC))})
                from repro.harness.journal import RunJournal
                j = RunJournal({repr(str(path))})  # bound: lock stays held
                j.record("held", {{"ipc": 1.0}})
                print("locked", flush=True)
                time.sleep(60)
            """)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            with pytest.raises(JournalError, match=str(holder.pid)):
                RunJournal(path).record("mine", {"ipc": 2.0})
        finally:
            holder.kill()
            holder.wait()

    def test_unparseable_stamp_is_treated_as_live(self, tmp_path):
        """A garbage stamp is the racing-writer window (opened, flocked,
        not yet stamped), not proof of death: never break it."""
        from repro.harness.journal import RunJournal as _RJ

        j = _RJ(tmp_path / "j.jsonl")
        assert j._break_if_stale("") is False
        assert j._break_if_stale("not-a-pid") is False

    def test_pid_alive_probe(self):
        import os

        from repro.storage.atomic import pid_alive

        assert pid_alive(os.getpid()) is True
        assert pid_alive(-1) is False
        assert pid_alive(0) is False

"""Tests for mid-run simulator checkpointing (repro.smt.checkpoint).

The headline property: run-to-quantum-k → snapshot → restore → run-to-end
is bit-identical to an uninterrupted run — same RunResult, same decision
log, same RNG streams — for every scheduler mode, including under an
active fault plan.
"""

import pickle

import pytest

from repro import build_processor
from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig, run_adts, run_fixed
from repro.smt.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointPlan,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def tiny(**over):
    base = dict(mix="mix05", num_threads=8, quantum_cycles=512,
                quanta=5, warmup_quanta=2, seed=0)
    base.update(over)
    return RunConfig(**base)


class _StopAt(Exception):
    pass


def _interrupt(cfg, k, snap_path, **adts_kw):
    """Run with per-quantum checkpoints and abort after quantum k, leaving
    the snapshot of quantum k on disk (a simulated crash)."""
    plan = CheckpointPlan(path=snap_path, every_quanta=1)

    def bomb(done):
        if done == k:
            raise _StopAt

    with pytest.raises(_StopAt):
        run_adts(cfg, checkpoint=plan, progress=bomb, **adts_kw)
    assert snap_path.exists()
    return plan


class TestResumeEquivalence:
    """Interrupted-and-resumed runs must be bit-identical to clean runs."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("heuristic", ["type1", "type3"])
    def test_adts_resume_bit_identical(self, tmp_path, seed, heuristic):
        cfg = tiny(seed=seed)
        th = ThresholdConfig(ipc_threshold=2.0)
        clean = run_adts(cfg, heuristic=heuristic, thresholds=th)
        snap = tmp_path / "run.snap"
        plan = _interrupt(cfg, 3, snap, heuristic=heuristic, thresholds=th)
        resumed = run_adts(cfg, heuristic=heuristic, thresholds=th, checkpoint=plan)
        assert resumed.ipc == clean.ipc
        assert resumed.committed == clean.committed
        assert resumed.cycles == clean.cycles
        assert resumed.quantum_ipcs == clean.quantum_ipcs
        assert resumed.scheduler == clean.scheduler  # switches, decisions, ...
        assert not snap.exists()  # discarded after the clean finish

    def test_snapshot_with_every_cache_row_built_resumes(self, tmp_path):
        """Caches build a set's rows at its first fill. A snapshot holding
        every row (the layout written before that) must still restore, and
        the resumed run must reach the uninterrupted run's fingerprint."""
        from repro.core.adts import ADTSController

        def machine():
            ctrl = ADTSController(heuristic="type3",
                                  thresholds=ThresholdConfig(ipc_threshold=2.0))
            proc = build_processor(mix="mix05", seed=3, hook=ctrl, quantum_cycles=512)
            return proc, ctrl

        def caches(p):
            return p.hierarchy.l1i, p.hierarchy.l1d, p.hierarchy.l2

        clean, _ = machine()
        clean.run_quanta(6)
        proc, ctrl = machine()
        proc.run_quanta(3)
        for cache in caches(proc):
            ways = cache.config.ways
            for idx, row in enumerate(cache._tags):
                if row is None:
                    cache._tags[idx] = [-1] * ways
                    cache._lru[idx] = [0] * ways
        snap_path = tmp_path / "eager.snap"
        save_checkpoint(snap_path, proc, ctrl)
        snap = load_checkpoint(snap_path)
        assert all(row is not None for c in caches(snap.processor) for row in c._tags)
        snap.processor.run_quanta(3)
        assert snap.processor.fingerprint() == clean.fingerprint()
        assert CHECKPOINT_VERSION == 2  # the cache layout change kept the schema

    def test_snapshot_from_the_idle_skip_engine_resumes(self, tmp_path):
        """Snapshots written before idle-cycle skipping was deleted carry
        the processor's ``_idle_skip`` flag and two ``SimStats`` counters
        the engine no longer has. They must still restore and reach the
        uninterrupted fingerprint; a serve straggler's snapshot can cross
        that upgrade."""

        def machine():
            return build_processor(mix="mix05", seed=3, policy="icount",
                                   quantum_cycles=512)

        clean = machine()
        clean.run_quanta(6)
        proc = machine()
        proc.run_quanta(3)
        proc._idle_skip = True
        proc.stats.idle_skipped_cycles = 123
        proc.stats.idle_skips = 4
        snap_path = tmp_path / "skip.snap"
        save_checkpoint(snap_path, proc)
        snap = load_checkpoint(snap_path)
        assert snap.processor._idle_skip is True
        snap.processor.run_quanta(3)
        assert snap.processor.fingerprint() == clean.fingerprint()
        assert snap.processor.stats.summary() == clean.stats.summary()
        assert CHECKPOINT_VERSION == 2

    def test_adts_resume_under_fault_plan(self, tmp_path):
        """The fault RNG stream is part of the snapshot: a resumed faulty
        run injects the exact same faults as an uninterrupted one."""
        cfg = tiny(seed=5)
        th = ThresholdConfig(ipc_threshold=2.0)
        plan = FaultPlan.storm(seed=9, rate=0.4)
        clean = run_adts(cfg, thresholds=th, fault_plan=plan)
        assert clean.scheduler.get("faults_injected", 0) > 0  # storm was live
        snap = tmp_path / "faulty.snap"
        ck = _interrupt(cfg, 3, snap, thresholds=th, fault_plan=plan)
        resumed = run_adts(cfg, thresholds=th, fault_plan=plan, checkpoint=ck)
        assert resumed.ipc == clean.ipc
        assert resumed.scheduler == clean.scheduler

    def test_fixed_resume_bit_identical(self, tmp_path):
        cfg = tiny(seed=2, policy="icount")
        clean = run_fixed(cfg)
        snap = tmp_path / "fixed.snap"
        plan = CheckpointPlan(path=snap, every_quanta=1)

        def bomb(done):
            if done == 4:
                raise _StopAt

        with pytest.raises(_StopAt):
            run_fixed(cfg, checkpoint=plan, progress=bomb)
        resumed = run_fixed(cfg, checkpoint=plan)
        assert resumed.ipc == clean.ipc
        assert resumed.quantum_ipcs == clean.quantum_ipcs

    def test_stepped_equals_bulk_without_checkpointing(self):
        """The quantum-stepped measure loop (used whenever progress or
        checkpointing is on) is itself result-preserving."""
        cfg = tiny(seed=7)
        th = ThresholdConfig(ipc_threshold=2.0)
        bulk = run_adts(cfg, thresholds=th)
        beats = []
        stepped = run_adts(cfg, thresholds=th, progress=beats.append)
        assert stepped.ipc == bulk.ipc
        assert stepped.quantum_ipcs == bulk.quantum_ipcs
        assert beats == list(range(1, cfg.total_quanta() + 1))

    def test_keep_on_success_preserves_final_snapshot(self, tmp_path):
        cfg = tiny()
        snap = tmp_path / "keep.snap"
        plan = CheckpointPlan(path=snap, every_quanta=1, keep_on_success=True)
        run_adts(cfg, checkpoint=plan)
        assert snap.exists()


class TestSnapshotFormat:
    def _proc_at_boundary(self):
        proc = build_processor(mix="mix02", seed=1, quantum_cycles=256)
        proc.run_quanta(2)
        return proc

    def test_save_requires_quantum_boundary(self, tmp_path):
        proc = build_processor(mix="mix02", seed=1, quantum_cycles=256)
        proc.run(100)  # mid-quantum
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "x.snap", proc)

    def test_roundtrip_restores_identical_state(self, tmp_path):
        proc = self._proc_at_boundary()
        fp = proc.fingerprint()
        save_checkpoint(tmp_path / "s.snap", proc, meta={"k": "v"})
        snap = load_checkpoint(tmp_path / "s.snap", expect_meta={"k": "v"})
        assert snap.processor.fingerprint() == fp
        assert snap.quantum_index == proc.quantum_index
        assert snap.cycle == proc.now

    def test_restored_processor_diverges_identically(self, tmp_path):
        """Advancing the restored copy matches advancing the original."""
        proc = self._proc_at_boundary()
        save_checkpoint(tmp_path / "s.snap", proc)
        twin = load_checkpoint(tmp_path / "s.snap").processor
        proc.run_quanta(2)
        twin.run_quanta(2)
        assert twin.fingerprint() == proc.fingerprint()

    def test_meta_mismatch_rejected(self, tmp_path):
        proc = self._proc_at_boundary()
        save_checkpoint(tmp_path / "s.snap", proc, meta={"run_key": "A"})
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "s.snap", expect_meta={"run_key": "B"})

    def test_truncated_file_rejected(self, tmp_path):
        proc = self._proc_at_boundary()
        path = tmp_path / "s.snap"
        save_checkpoint(path, proc)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupted_payload_rejected_by_crc(self, tmp_path):
        proc = self._proc_at_boundary()
        path = tmp_path / "s.snap"
        save_checkpoint(path, proc)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload bit; length still matches
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_bytes(b"NOT-A-SNAPSHOT-FILE" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.snap")

    def test_discard_is_idempotent(self, tmp_path):
        proc = self._proc_at_boundary()
        path = tmp_path / "s.snap"
        save_checkpoint(path, proc)
        discard_checkpoint(path)
        assert not path.exists()
        discard_checkpoint(path)  # no error on repeat

    def test_no_temp_file_left_behind(self, tmp_path):
        proc = self._proc_at_boundary()
        save_checkpoint(tmp_path / "s.snap", proc)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "s.snap"]
        assert leftovers == []

    def test_fresh_processor_pickle_footprint(self):
        """Batch forks and checkpoints copy a processor's pickle. A fresh
        8-thread machine pickled to ~1.3 MB when it built every cache row
        and 8,192 pooled draws per thread up front; it must stay small."""
        proc = build_processor(mix="mix05", num_threads=8)
        assert len(pickle.dumps(proc, protocol=pickle.HIGHEST_PROTOCOL)) < 512 * 1024

    def test_processor_with_queued_detector_work_pickles(self):
        """ADTS queues detector tasks whose callbacks must stay picklable
        (a lambda there would make every quantum-boundary snapshot fail)."""
        from repro.core.adts import ADTSController

        ctrl = ADTSController(heuristic="type3",
                              thresholds=ThresholdConfig(ipc_threshold=2.0))
        proc = build_processor(mix="mix05", seed=0, hook=ctrl, quantum_cycles=256)
        proc.run_quanta(3)
        blob = pickle.dumps({"proc": proc, "ctrl": ctrl})
        assert pickle.loads(blob)["proc"].now == proc.now

"""Disk-fault chaos: sweeps must complete *correctly* under filesystem
faults, because artifacts are recovered or regenerated — never trusted
when damaged.

The in-process tests run in tier-1: a journaled grid under seeded
torn-write/ENOSPC/rename/bitrot faults produces an aggregate bit-identical
to a clean run, the trace cache isolates per-trace flush failures
(satellite: one failing trace must not lose the others), and a run whose
checkpoint writes fail degrades to no-snapshots instead of aborting.

The subprocess scenario is gated behind ``REPRO_CHAOS=1`` (the CI
``disk-chaos`` job sets it): a real ``repro grid --workers N`` under
``--faults disk`` must exit 0 with output identical to the fault-free run,
and ``repro fsck`` over the tree must find nothing to quarantine.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultPlan
from repro.harness.journal import RunJournal
from repro.harness.runner import RunConfig, run_adts
from repro.harness.sweep import threshold_type_grid
from repro.storage import DiskFaultPlan, faultfs_session
from repro.workloads.tracecache import TraceCache

QUICK = RunConfig(mix="mix01", quantum_cycles=256, quanta=2, warmup_quanta=1, seed=0)

DISK_PLAN = FaultPlan(
    seed=7,
    disk_torn_write_rate=0.3,
    disk_enospc_rate=0.2,
    disk_rename_fail_rate=0.1,
    disk_bitrot_rate=0.1,
)


class TestDiskFaultedRunsAreBitIdentical:
    def test_single_run_identical_under_disk_faults(self, tmp_path):
        clean = run_adts(QUICK)
        faulty = run_adts(QUICK, fault_plan=DISK_PLAN)
        assert faulty.ipc == clean.ipc
        assert faulty.scheduler["switches"] == clean.scheduler["switches"]

    def test_disk_only_plan_reports_no_scheduler_faults(self):
        r = run_adts(QUICK, fault_plan=DISK_PLAN)
        # no FaultInjector was installed: disk faults are storage-level
        assert "faults_injected" not in r.scheduler

    def test_journaled_grid_identical_under_disk_faults(self, tmp_path):
        mixes = ["mix01"]
        thresholds = (2.0, 3.0)
        heuristics = ("type1", "type3")
        clean = threshold_type_grid(
            QUICK, mixes, thresholds=thresholds, heuristics=heuristics)

        journal = RunJournal(tmp_path / "runs.jsonl")
        with faultfs_session(DISK_PLAN.disk_plan()) as ffs:
            faulty = threshold_type_grid(
                QUICK, mixes, thresholds=thresholds, heuristics=heuristics,
                journal=journal, fault_plan=DISK_PLAN)
        journal.close()
        assert faulty.ipc == clean.ipc
        assert faulty.switches == clean.switches
        assert ffs.faults_injected > 0  # the sweep really was under fire

    def test_disk_faulted_journal_resumes_cleanly(self, tmp_path):
        """Whatever the faulted sweep managed to journal must be loadable
        and must replay to the same aggregate."""
        mixes = ["mix01"]
        journal = RunJournal(tmp_path / "runs.jsonl")
        with faultfs_session(DISK_PLAN.disk_plan()):
            first = threshold_type_grid(
                QUICK, mixes, thresholds=(2.0,), heuristics=("type3",),
                journal=journal, fault_plan=DISK_PLAN)
        journal.close()
        j2 = RunJournal(tmp_path / "runs.jsonl")
        j2.recover()
        resumed = threshold_type_grid(
            QUICK, mixes, thresholds=(2.0,), heuristics=("type3",),
            journal=j2, fault_plan=DISK_PLAN)
        j2.close()
        assert resumed.ipc == first.ipc

    def test_grid_cell_keys_shared_with_fault_free_sweep(self):
        """Disk-only plans must not enter the cell identity key — a
        disk-chaos journal is a valid resume source for a clean sweep."""
        from repro.harness.runner import BatchRunSpec, run_key

        def key(plan):
            return run_key(BatchRunSpec(
                config=QUICK, heuristic="type3",
                thresholds=ThresholdConfig(ipc_threshold=2.0), fault_plan=plan))

        clean_key = key(None)
        disk_key = key(DISK_PLAN)
        sched_key = key(FaultPlan(counter_stale_rate=0.5))
        assert disk_key == clean_key
        assert sched_key != clean_key


class TestTraceCacheFlushIsolation:
    @staticmethod
    def _grown_cache(tmp_path, apps=("gcc", "mcf", "art")):
        from repro.workloads.profiles import get_profile

        cache = TraceCache(tmp_path / "cache")
        for slot, name in enumerate(apps):
            trace = cache.attach(get_profile(name), slot, name, seed=0)
            trace.take(40)  # grow past the (empty) on-disk prefix
        return cache

    def test_flush_continues_past_failing_trace(self, tmp_path):
        """Satellite: one trace failing to flush must not abort the rest —
        the result names each failure and the survivors stay live for a
        retry that then persists them."""
        cache = self._grown_cache(tmp_path)
        n = len(cache._live)
        assert n == 3
        # every write fails: all traces must be reported, none written
        with faultfs_session(DiskFaultPlan(seed=0, torn_write_rate=1.0)):
            result = cache.flush()
        assert not result.ok
        assert result.written == 0
        assert len(result.failures) == n
        for failure in result.failures:
            assert failure["name"] and failure["error"]
        assert cache.stats["flush_errors"] == n
        assert len(cache._live) == n  # nothing lost, everything retried later
        # the device recovers: a later flush writes everything
        retry = cache.flush()
        assert retry.ok and retry.written == n

    def test_partial_failure_flushes_the_rest(self, tmp_path):
        """Under a flapping fault some archives land and the failures are
        itemized; written + failed covers every grown trace."""
        cache = self._grown_cache(tmp_path)
        n = len(cache._live)
        with faultfs_session(DiskFaultPlan(seed=3, torn_write_rate=0.99)):
            # near-certain failure per attempt (each write retries
            # internally, so drive the rate high to see a mix)
            result = cache.flush()
        assert result.written + len(result.failures) == n

    def test_flush_result_ok_on_clean_flush(self, tmp_path):
        cache = self._grown_cache(tmp_path)
        result = cache.flush()
        assert result.ok and result.written == 3 and result.failures == []
        assert cache._live == []  # everything persisted


class TestRunDegradesNotAborts:
    def test_checkpointed_run_survives_total_write_failure(self, tmp_path):
        """Checkpoint saves failing persistently must cost only the
        snapshots, not the run."""
        plan = tmp_path / "run.snap"
        clean = run_adts(QUICK, checkpoint=plan)
        (tmp_path / "run.snap").unlink(missing_ok=True)
        hostile = FaultPlan(seed=1, disk_torn_write_rate=1.0,
                            disk_rename_fail_rate=1.0)
        faulty = run_adts(QUICK, checkpoint=plan, fault_plan=hostile)
        assert faulty.ipc == clean.ipc

    def test_resume_ignores_corrupt_checkpoint(self, tmp_path):
        """A damaged snapshot on the resume path is quarantined and the
        run starts fresh — same result, no crash, evidence preserved."""
        snap = tmp_path / "run.snap"
        snap.write_bytes(b"REPROART1\n" + b"\xde\xad" * 40)
        clean = run_adts(QUICK)
        resumed = run_adts(QUICK, checkpoint=snap)  # resume path: file exists
        assert resumed.ipc == clean.ipc
        assert any(".corrupt" in p.name for p in tmp_path.iterdir())


# -- subprocess scenario (CI disk-chaos job) ---------------------------------
chaos = pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS") != "1",
    reason="disk-chaos subprocess test only runs with REPRO_CHAOS=1",
)


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@chaos
class TestDiskChaosCLI:
    GRID = ["grid", "--quanta", "2", "--warmup", "1", "--quantum", "256",
            "--mixes", "mix01,mix05", "--json"]

    def test_workers_grid_under_disk_faults_matches_clean(self, tmp_path):
        clean = _run_cli(self.GRID, tmp_path)
        assert clean.returncode == 0, clean.stderr
        faulty = _run_cli(
            self.GRID + ["--journal", str(tmp_path / "runs.jsonl"),
                         "--workers", "2", "--faults", "disk",
                         "--fault-rate", "0.3"],
            tmp_path)
        assert faulty.returncode == 0, faulty.stderr
        assert json.loads(faulty.stdout) == json.loads(clean.stdout)
        assert "disk faults injected" in faulty.stderr

        fsck = _run_cli(["fsck", str(tmp_path)], tmp_path)
        assert fsck.returncode == 0, fsck.stdout  # nothing left to quarantine

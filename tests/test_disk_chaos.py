"""Disk-fault chaos: sweeps must complete *correctly* under filesystem
faults, because artifacts are recovered or regenerated — never trusted
when damaged.

The in-process tests run in tier-1: a run and a journaled grid under
seeded torn-write/ENOSPC/rename/bitrot faults produce results identical
to a clean run (a run itself does no storage I/O; the journal takes the
faults).

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
from repro.faults.plan import FaultPlan
from repro.harness.journal import RunJournal
from repro.harness.runner import RunConfig, run_adts
from repro.harness.sweep import threshold_type_grid
from repro.storage.faultfs import faultfs_session

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
        """A disk-only plan shares its clean twin's run key, so it must
        return the clean twin's whole result, fingerprint included."""
        clean = run_adts(QUICK)
        faulty = run_adts(QUICK, fault_plan=DISK_PLAN)
        assert faulty == clean

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

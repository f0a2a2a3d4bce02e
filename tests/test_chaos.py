"""Chaos test: kill real processes under a live journaled parallel sweep.

Gated behind ``REPRO_CHAOS=1`` (the CI chaos job sets it) because it spawns
CLI subprocesses and SIGKILLs them — too heavy and too Linux-specific for
the tier-1 suite.

Two scenarios, both asserting the end state is bit-identical to a clean
in-process sweep:

1. **worker kill** — SIGKILL one supervised worker process mid-run; the
   supervisor must classify the crash, restart the batch, and finish with
   the correct aggregate (crash containment + restart).
2. **supervisor kill + resume** — SIGKILL the whole sweep mid-run, then
   rerun with ``--resume --workers``; journaled cells are served, the rest
   re-run, and the final aggregate matches (journal + flock release on
   death). The killed run uses ``--batch 10`` so its batches span several
   waves (the journal is written per finished wave) and the resume, at the
   default one batch per mix, also crosses batch sizes.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_CHAOS") != "1",
        reason="chaos tests only run with REPRO_CHAOS=1",
    ),
    pytest.mark.skipif(
        sys.platform != "linux",
        reason="worker discovery uses /proc",
    ),
]

import repro  # noqa: E402  (after the gate: only imported when running)
from repro.harness.experiments import ExperimentDefaults, experiment_fig8, run_grid  # noqa: E402
from repro.harness.runner import run_mix_average  # noqa: E402

SRC = str(Path(repro.__file__).resolve().parents[1])
MIXES = "mix01,mix02"
GRID_ARGS = [
    "grid", "--mixes", MIXES, "--quanta", "4", "--warmup", "1",
    "--quantum", "512", "--seed", "0", "--json",
]


def _expected_fig8():
    defaults = ExperimentDefaults(quantum_cycles=512, quanta=4, warmup_quanta=1, seed=0)
    mixes = MIXES.split(",")
    grid = run_grid(defaults, mixes=mixes)
    baseline = run_mix_average(mixes, defaults.base_run())["mean_ipc"]
    # Round-trip through JSON so dict keys (float thresholds) compare equal
    # with the CLI's JSON output.
    return json.loads(json.dumps(experiment_fig8(grid, baseline), default=str))


def _spawn(extra, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *GRID_ARGS, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd,
    )


def _worker_pids(supervisor_pid, deadline_s=30.0):
    """Poll /proc for the supervisor's children (the cell workers)."""
    children_file = Path(f"/proc/{supervisor_pid}/task/{supervisor_pid}/children")
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            pids = [int(p) for p in children_file.read_text().split()]
        except (OSError, ValueError):
            pids = []
        if pids:
            return pids
        time.sleep(0.05)
    return []


def _assert_matches_expected(stdout, expected):
    got = json.loads(stdout)
    assert got["ipc_vs_threshold"] == expected["ipc_vs_threshold"]
    assert got["ipc_vs_type"] == expected["ipc_vs_type"]
    assert got["best_cell"] == expected["best_cell"]


def test_worker_sigkill_is_contained_and_retried(tmp_path):
    expected = _expected_fig8()
    journal = tmp_path / "grid.jsonl"
    proc = _spawn(["--workers", "2", "--retries", "2", "--journal", str(journal)],
                  cwd=tmp_path)
    try:
        victims = _worker_pids(proc.pid)
        assert victims, "no supervised workers appeared"
        os.kill(victims[0], signal.SIGKILL)
        stdout, stderr = proc.communicate(timeout=600)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, stderr
    _assert_matches_expected(stdout, expected)
    # The supervisor must have *seen* the murder, not raced past it.
    assert "supervisor:" in stderr and "crash" in stderr, stderr


def test_supervisor_sigkill_then_resume_matches_serial(tmp_path):
    expected = _expected_fig8()
    journal = tmp_path / "grid.jsonl"

    first = _spawn(["--workers", "2", "--batch", "10", "--journal", str(journal)],
                   cwd=tmp_path)
    try:
        # Let some cells land in the journal, then kill the whole sweep.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 0:
                break
            time.sleep(0.05)
        assert journal.exists(), "no journal entries before the kill"
        os.kill(first.pid, signal.SIGKILL)
        first.wait(timeout=60)
    finally:
        if first.poll() is None:
            first.kill()
            first.wait()

    done_before = sum(1 for line in journal.read_text().splitlines() if line.strip())
    assert done_before >= 1

    # flock died with the holder: the resume must start without a conflict.
    second = _spawn(["--workers", "2", "--resume", "--journal", str(journal)],
                    cwd=tmp_path)
    stdout, stderr = second.communicate(timeout=600)
    assert second.returncode == 0, stderr
    assert f"resuming: " in stderr, stderr
    _assert_matches_expected(stdout, expected)

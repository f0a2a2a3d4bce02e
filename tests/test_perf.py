"""Stage profiler (repro.perf) tests: stage-time bookkeeping and
bit-identity of a profiled run."""

import pytest

from repro import build_processor
from repro.perf import StageProfiler


def test_stage_profiler_accounts_stage_time():
    proc = build_processor(mix="mix05", seed=0, quantum_cycles=256)
    prof = StageProfiler(proc)
    with prof:
        proc.run_quanta(1)
    report = prof.report()
    assert set(report) == set(StageProfiler.STAGES)
    total_share = sum(entry["share"] for entry in report.values())
    assert total_share == pytest.approx(1.0)
    assert report["_issue"]["seconds"] > 0.0
    # The wrappers must be gone after uninstall.
    assert "_issue" not in proc.__dict__
    proc.run_quanta(1)  # still functional


def test_stage_profiler_preserves_fingerprint():
    fps = []
    for profile in (False, True):
        proc = build_processor(mix="mix05", seed=0, quantum_cycles=256)
        if profile:
            with StageProfiler(proc):
                proc.run_quanta(2)
        else:
            proc.run_quanta(2)
        fps.append(proc.fingerprint())
    assert fps[0] == fps[1]

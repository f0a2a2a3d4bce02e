#!/usr/bin/env python
"""Clogging-thread identification and the job-scheduler handshake (§3/§4).

Builds a mix of seven well-behaved threads plus one pathological
memory-thrasher (mcf), lets the detector thread mark cloggers via the
thread control flags, then plays the job scheduler: suspend the marked
thread and measure the throughput of the remaining threads.

Usage:
    python examples/clogging_detection.py
"""

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.clogging import identify_clogging_threads
from repro.core.thresholds import ThresholdConfig

APPS = ["gzip", "eon", "vortex", "mesa", "crafty", "gap", "bzip2", "mcf"]


def main() -> None:
    adts = ADTSController(heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=2.5))
    proc = build_processor(mix=APPS, hook=adts, quantum_cycles=2048)
    proc.run_quanta(12)
    print(f"phase 1 (all 8 threads): IPC {proc.stats.ipc:.3f}")

    # What does the DT see? Accumulate most of a quantum, then peek at the
    # counters the way the DT would at the boundary (the peek clears them).
    proc.run(1500)
    snapshots = [t.end_quantum() for t in proc.counters]
    reports = identify_clogging_threads(snapshots)
    for r in reports:
        flag = "CLOGGING" if r.clogging else "ok"
        print(f"  t{r.tid} ({APPS[r.tid]:>7s}): {flag:9s} "
              f"occupancy share {r.occupancy_share:.2f}, "
              f"commit share {r.commit_share:.2f}  {list(r.reasons)}")

    marked = adts.flags.marked_for_suspension()
    print(f"\nthreads the DT flagged during the run: {marked}")
    if not marked:
        # Fall back to the live classification for the demonstration.
        marked = [r.tid for r in reports if r.clogging][:1] or [APPS.index("mcf")]

    # Job scheduler: act on the flags without re-deriving the victim.
    committed_before = proc.stats.committed
    cycles_before = proc.now
    for tid in marked:
        adts.flags.suspend_now(tid)
        print(f"job scheduler: suspended t{tid} ({APPS[tid]})")
    proc.run_quanta(12)
    ipc_after = (proc.stats.committed - committed_before) / (proc.now - cycles_before)
    print(f"phase 2 ({8 - len(marked)} threads): IPC {ipc_after:.3f} "
          f"(per remaining thread: {ipc_after / (8 - len(marked)):.3f} vs "
          f"{proc.stats.ipc / 8:.3f} before)")


if __name__ == "__main__":
    main()

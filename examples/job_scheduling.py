#!/usr/bin/env python
"""Job-scheduler symbiosis demo (paper §3).

Time-shares a 12-job pool over 8 SMT contexts. The detector thread flags
clogging threads in the thread control flags; the job scheduler evicts
flagged jobs first ("guided") instead of blindly rotating ("oblivious").

Usage:
    python examples/job_scheduling.py [guided|oblivious|both]
"""

import sys

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.jobsched import JobPool, JobSchedulerHook
from repro.core.thresholds import ThresholdConfig

POOL = [
    "gzip", "eon", "vortex", "mesa", "crafty", "gap", "bzip2", "gcc",
    "mcf", "art", "equake", "swim",
]


def run(mode: str) -> None:
    pool = JobPool(POOL, seed=0)
    # Threshold above the pool's typical IPC so clogging identification
    # fires often enough for the flags to matter.
    adts = ADTSController(heuristic="type3",
                          thresholds=ThresholdConfig(ipc_threshold=2.6))
    hook = JobSchedulerHook(pool, mode=mode, interval_quanta=4,
                            swaps_per_interval=2, adts=adts)
    proc = build_processor(mix=POOL[:8], seed=0, hook=hook, quantum_cycles=2048)
    proc.run_quanta(24)
    s = hook.summary()
    print(f"\n{mode}: IPC {proc.stats.ipc:.3f}  "
          f"({s['swaps']} job swaps, {s['guided_evictions']} flag-guided evictions)")
    print(f"  resident at end : {sorted(s['resident'].values())}")
    print(f"  waiting         : {sorted(s['waiting'])}")
    busiest = sorted(pool.jobs, key=lambda j: -j.evictions_as_clogger)[:3]
    if any(j.evictions_as_clogger for j in busiest):
        print("  most-evicted-as-clogger:",
              [(j.app, j.evictions_as_clogger) for j in busiest if j.evictions_as_clogger])


def main() -> None:
    choice = sys.argv[1] if len(sys.argv) > 1 else "both"
    modes = ("guided", "oblivious") if choice == "both" else (choice,)
    print(f"job pool ({len(POOL)} jobs on 8 contexts): {', '.join(POOL)}")
    for mode in modes:
        run(mode)


if __name__ == "__main__":
    main()

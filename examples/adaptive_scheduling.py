#!/usr/bin/env python
"""The detector thread at work: run ADTS with each heuristic type and dump
the DT's decision log — when low throughput was detected, which conditions
fired, what policy was chosen, and how long the DT took to apply it using
only idle fetch slots.

Usage:
    python examples/adaptive_scheduling.py [mix_name] [heuristic]
"""

import sys

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.heuristics import HEURISTIC_LABELS
from repro.core.thresholds import ThresholdConfig


def run_one(mix: str, heuristic: str) -> None:
    adts = ADTSController(
        heuristic=heuristic, thresholds=ThresholdConfig(ipc_threshold=2.0)
    )
    proc = build_processor(mix=mix, hook=adts, quantum_cycles=2048)
    stats = proc.run_quanta(24)
    s = adts.summary()
    print(f"\n{HEURISTIC_LABELS[heuristic]}: IPC {stats.ipc:.3f}, "
          f"{s['low_throughput_quanta']} low-throughput quanta, "
          f"{s['switches']} switches, P(benign) {s['benign_probability']:.2f}")
    print(f"  detector thread: {s['dt_instructions']} instructions executed, "
          f"{s['dt_starved_cycles']} starved cycles, "
          f"mean task latency {s['dt_mean_task_latency']:.0f} cycles, "
          f"{s['missed_decisions']} decisions missed (DT busy)")
    for log in adts.decisions[:8]:
        applied = (
            f"applied at cycle {log.applied_at_cycle}"
            if log.applied_at_cycle >= 0
            else "no switch"
        )
        print(f"  q{log.quantum_index:3d} ipc={log.ipc:.2f} "
              f"{log.incumbent} -> {log.chosen} ({log.reason}; {applied})")
    marked = adts.flags.marked_for_suspension()
    if marked:
        print(f"  clogging threads flagged for the job scheduler: {marked}")


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix07"
    heuristics = [sys.argv[2]] if len(sys.argv) > 2 else list(HEURISTIC_LABELS)
    print(f"ADTS decision traces on {mix} (IPC threshold 2.0)")
    for h in heuristics:
        run_one(mix, h)


if __name__ == "__main__":
    main()

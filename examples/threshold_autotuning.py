#!/usr/bin/env python
"""Threshold auto-tuning demo (paper §4.3.2's proposed extension).

A stale IPC threshold makes low-throughput detection meaningless when the
workload changes. Runs the same mix under (a) a deliberately mis-set fixed
threshold and (b) the self-tuning kernel that tracks a low quantile of
recent quantum IPC, and compares detection behaviour.

Usage:
    python examples/threshold_autotuning.py [mix_name]
"""

import sys

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.autotune import ThresholdAutoTuner
from repro.core.thresholds import ThresholdConfig


def run(mix: str, autotune: bool, stale_threshold: float) -> None:
    tuner = ThresholdAutoTuner(
        initial=ThresholdConfig(ipc_threshold=stale_threshold),
        ipc_quantile=0.35,
        update_interval=4,
    ) if autotune else None
    adts = ADTSController(
        heuristic="type3",
        thresholds=ThresholdConfig(ipc_threshold=stale_threshold),
        autotune=tuner,
    )
    proc = build_processor(mix=mix, hook=adts, quantum_cycles=1024)
    proc.run_quanta(72)
    label = "auto-tuned" if autotune else f"fixed stale threshold {stale_threshold}"
    print(f"\n{label}:")
    print(f"  IPC {proc.stats.ipc:.3f}, "
          f"{adts.low_throughput_quanta} low-throughput detections, "
          f"{adts.num_switches} switches")
    if tuner:
        print(f"  threshold trajectory: "
              f"{[round(e.thresholds.ipc_threshold, 2) for e in tuner.events[:8]]} ...")
        print(f"  final thresholds: ipc={tuner.thresholds.ipc_threshold:.2f}, "
              f"l1={tuner.thresholds.l1_miss_rate:.3f}, "
              f"mispredict={tuner.thresholds.mispredict_rate:.4f}")


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix05"
    print(f"mix {mix}: a threshold of 0.5 is far below this machine's IPC "
          f"(never detects); the tuner must discover a sensible one online.")
    run(mix, autotune=False, stale_threshold=0.5)
    run(mix, autotune=True, stale_threshold=0.5)


if __name__ == "__main__":
    main()

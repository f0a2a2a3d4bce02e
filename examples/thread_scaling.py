#!/usr/bin/env python
"""Throughput saturation vs. thread count (the paper's §1 motivation).

Runs a mix at 1/2/4/6/8 hardware contexts under fixed ICOUNT, round-robin
and ADTS, showing (a) the sub-linear scaling / saturation beyond ~4 threads
and (b) adaptive scheduling extending the useful range.

Usage:
    python examples/thread_scaling.py [mix_name]
"""

import sys

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.harness.report import print_table


def ipc_at(mix: str, n: int, policy: str = "icount", adaptive: bool = False) -> float:
    hook = None
    if adaptive:
        hook = ADTSController(heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=2.0))
    proc = build_processor(
        mix=mix, num_threads=n, policy=policy, hook=hook, quantum_cycles=2048
    )
    return proc.run_quanta(16).ipc


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix05"
    rows = []
    for n in (1, 2, 4, 6, 8):
        rows.append(
            [
                n,
                ipc_at(mix, n, "icount"),
                ipc_at(mix, n, "rr"),
                ipc_at(mix, n, adaptive=True),
            ]
        )
    print_table(
        ["threads", "icount_ipc", "rr_ipc", "adts_ipc"],
        rows,
        title=f"Thread scaling on {mix} (paper §1: saturation beyond ~4 threads)",
    )
    speedup = rows[-1][1] / rows[2][1]
    print(f"\n8-thread over 4-thread ICOUNT throughput: {speedup:.2f}x "
          f"(ideal 2x — the shortfall is the saturation ADTS targets; "
          f"note the paper's §5 down-sampling keeps a random app subset "
          f"per thread count, so points are different workloads)")


if __name__ == "__main__":
    main()

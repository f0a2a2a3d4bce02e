#!/usr/bin/env python
"""Quickstart: run one SPEC2000-like 8-thread mix on the SMT simulator,
first under the fixed ICOUNT fetch policy, then under ADTS (detector thread
with the Type 3 heuristic), and compare.

Usage:
    python examples/quickstart.py [mix_name]
"""

import sys

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.workloads.mixes import get_mix


def main() -> None:
    mix_name = sys.argv[1] if len(sys.argv) > 1 else "mix07"
    mix = get_mix(mix_name)
    print(f"mix {mix.name}: {mix.description}")
    print(f"  applications: {', '.join(mix.apps)}")

    quantum = 2048
    quanta = 24

    # --- fixed ICOUNT baseline -------------------------------------------
    proc = build_processor(mix=mix_name, policy="icount", quantum_cycles=quantum)
    stats = proc.run_quanta(quanta)
    print(f"\nfixed ICOUNT : IPC {stats.ipc:.3f}  "
          f"(mispredict {stats.mispredict_rate:.1%}, "
          f"wrong-path fetch {stats.wrong_path_fraction:.1%})")

    # --- ADTS: detector thread + Type 3 heuristic --------------------------
    adts = ADTSController(heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=2.0))
    proc = build_processor(mix=mix_name, hook=adts, quantum_cycles=quantum)
    stats = proc.run_quanta(quanta)
    summary = adts.summary()
    print(f"ADTS (Type 3): IPC {stats.ipc:.3f}  "
          f"({summary['switches']} policy switches, "
          f"P(benign) {summary['benign_probability']:.2f}, "
          f"DT executed {summary['dt_instructions']} instructions in idle slots)")

    print("\nper-quantum policy trace (last 12 quanta):")
    for q in stats.quantum_history[-12:]:
        print(f"  quantum {q.index:3d}  policy {q.policy:<12s}  IPC {q.ipc:.3f}")


if __name__ == "__main__":
    main()

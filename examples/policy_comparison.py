#!/usr/bin/env python
"""Table 1 in action: run all ten fetch policies on one mix and rank them.

Reproduces the qualitative Tullsen/paper ordering: ICOUNT best on average,
round-robin worst, the event-count policies in between.

Usage:
    python examples/policy_comparison.py [mix_name] [quanta]
"""

import sys

from repro import build_processor
from repro.harness.report import print_table
from repro.policies.registry import POLICY_NAMES


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix05"
    quanta = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    rows = []
    for policy in POLICY_NAMES:
        proc = build_processor(mix=mix, policy=policy, quantum_cycles=2048)
        stats = proc.run_quanta(quanta)
        rows.append(
            [
                policy,
                stats.ipc,
                stats.mispredict_rate,
                stats.wrong_path_fraction,
                stats.fetch_utilization,
            ]
        )
    rows.sort(key=lambda r: -r[1])
    print_table(
        ["policy", "ipc", "mispredict", "wrong_path", "fetch_util"],
        rows,
        title=f"Fixed fetch policies on {mix} ({quanta} quanta of 2048 cycles)",
    )
    best, worst = rows[0], rows[-1]
    print(f"\nspread: {best[0]} beats {worst[0]} by "
          f"{(best[1] / worst[1] - 1):.1%}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Policy-dominance analysis: how much room does adaptivity have?

Runs the same mix under the three ADTS candidate policies, aligns the
per-quantum IPC series, and reports who wins each quantum, the dominance
ratio, and the per-quantum-oracle headroom — the quantity the paper's §1
cites as "some 30%" on SimpleSMT (see EXPERIMENTS.md for why it is far
smaller on this substrate).

Usage:
    python examples/dominance_analysis.py [mix_name] [quanta]
"""

import sys

from repro import build_processor
from repro.analysis.fairness import fairness_report
from repro.analysis.timeseries import detect_level_shifts, dominance_profile

POLICIES = ("icount", "brcount", "l1misscount")


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix02"
    quanta = int(sys.argv[2]) if len(sys.argv) > 2 else 24

    series = {}
    stats_by_policy = {}
    for policy in POLICIES:
        proc = build_processor(mix=mix, policy=policy, quantum_cycles=2048)
        proc.run_quanta(quanta)
        series[policy] = [q.ipc for q in proc.stats.quantum_history]
        stats_by_policy[policy] = proc.stats

    profile = dominance_profile(series)
    print(f"mix {mix}, {quanta} quanta per policy:")
    for policy in POLICIES:
        jain = fairness_report(stats_by_policy[policy])
        print(f"  {policy:<12s} mean IPC {profile.mean_ipc[policy]:.3f}  "
              f"wins {profile.wins[policy]:3d} quanta  "
              f"Jain fairness {jain:.2f}")
    print(f"\ndominant policy: {profile.dominant_policy} "
          f"({profile.dominance_ratio:.0%} of quanta)")
    print(f"per-quantum oracle mean: {profile.oracle_mean:.3f} "
          f"-> adaptivity headroom {profile.oracle_headroom():+.1%}")

    shifts = detect_level_shifts(series["icount"])
    if shifts:
        print(f"phase-change quanta under ICOUNT (CUSUM): {shifts}")
    print("\nwin sequence:", " ".join(p[:2] for p in profile.per_quantum_best))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Fault injection and watchdog fallback, end to end.

Runs the same ADTS configuration three times — clean, under a fault storm,
and under the *identical* storm again — to show (a) the watchdog degrading
gracefully to fixed ICOUNT instead of scheduling on garbage, and (b) that
faulty runs are exactly as reproducible as clean ones.

Usage:
    python examples/fault_injection.py [fault_rate]
"""

import sys

from repro.core.thresholds import ThresholdConfig
from repro.faults.plan import FaultPlan
from repro.harness.runner import RunConfig, run_adts
from repro.smt.config import SMTConfig


def main() -> None:
    rate = float(sys.argv[1]) if len(sys.argv) > 1 else 0.35
    cfg = RunConfig(
        mix="mix05",
        num_threads=4,
        machine=SMTConfig(num_threads=4),
        quantum_cycles=512,
        quanta=16,
        warmup_quanta=2,
    )
    th = ThresholdConfig(ipc_threshold=2.0)
    storm = FaultPlan.storm(seed=0, rate=rate)

    clean = run_adts(cfg, thresholds=th)
    faulty = run_adts(cfg, thresholds=th, fault_plan=storm)
    replay = run_adts(cfg, thresholds=th, fault_plan=storm)

    print(f"clean IPC : {clean.ipc:.3f}")
    print(f"storm IPC : {faulty.ipc:.3f}  (rate {rate:g} per boundary)")
    print(f"degradation: {100 * (1 - faulty.ipc / clean.ipc):.1f}%")
    s = faulty.scheduler
    print(
        f"injected {s['faults_injected']} faults {s['fault_counts']}; "
        f"{s['implausible_quanta']} implausible quanta, "
        f"{s['fallback_events']} watchdog fallback(s), "
        f"{s['safe_mode_quanta']} safe-mode quanta, "
        f"{s['dt_dropped_tasks']} DT tasks dropped"
    )
    identical = (
        faulty.ipc == replay.ipc and faulty.quantum_ipcs == replay.quantum_ipcs
    )
    print(f"storm replay byte-identical: {identical}")


if __name__ == "__main__":
    main()

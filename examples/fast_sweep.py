#!/usr/bin/env python
"""Paper-scale Figure 7/8 sweep on the fast quantum-level model.

Runs the full 13-mix x 5-threshold x 5-heuristic grid (the detailed
simulator's benchmarks run a reduced grid) in a few seconds and prints the
four Figure 8 series plus the Figure 7 switch statistics.

Usage:
    python examples/fast_sweep.py [quanta_per_run]
"""

import sys
import time

from repro.fastmodel.model import GRID_HEURISTICS as HEURISTICS
from repro.fastmodel.model import GRID_THRESHOLDS as THRESHOLDS
from repro.fastmodel.model import fast_grid
from repro.harness.report import format_series
from repro.workloads.mixes import mix_names


def main() -> None:
    quanta = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    mixes = mix_names()
    t0 = time.time()

    grid = fast_grid(quanta)
    icount = grid.fixed["icount"]
    print(f"fixed ICOUNT baseline (13-mix mean): {icount:.3f} IPC")
    ipc_grid, sw_grid, benign_grid = grid.ipc, grid.switches, grid.benign

    print("\nFigure 8(a/c) — aggregate IPC vs threshold, per heuristic type:")
    for h in HEURISTICS:
        print(" ", format_series(h, THRESHOLDS, [ipc_grid[(m, h)] for m in THRESHOLDS]))

    print("\nFigure 7(a) — switches vs threshold:")
    for h in HEURISTICS:
        print(" ", format_series(h, THRESHOLDS, [sw_grid[(m, h)] for m in THRESHOLDS]))

    print("\nFigure 7(c) — P(benign switch) vs threshold:")
    for h in HEURISTICS:
        print(" ", format_series(h, THRESHOLDS, [benign_grid[(m, h)] for m in THRESHOLDS]))

    best = max(ipc_grid, key=ipc_grid.get)
    print(f"\nbest cell: threshold {best[0]:.0f}, {best[1]} "
          f"-> {ipc_grid[best]:.3f} IPC "
          f"({(ipc_grid[best] / icount - 1):+.1%} vs fixed ICOUNT)")
    print(f"[fast model; {time.time() - t0:.1f}s for "
          f"{len(mixes) * (1 + len(THRESHOLDS) * len(HEURISTICS))} runs]")


if __name__ == "__main__":
    main()

"""F7/F8 at paper scale — the full 13-mix x 5-threshold x 5-type grid on
the fast quantum-level model (the detailed simulator runs the reduced grid
in the other Figure 7/8 benches; see DESIGN.md §2 for the layering).

Reproduction targets asserted here, on the full mix set:
* fixed-policy ordering: ICOUNT best, RR worst (Table 1 / §1);
* Fig 7(a): switch counts grow with the threshold and saturate;
* Fig 7(c): P(benign) declines as the threshold grows;
* Fig 8: the IPC-vs-threshold curve has an interior optimum near the
  paper's best threshold (2), and the best adaptive cell beats fixed
  ICOUNT.
"""

import numpy as np
from conftest import save_result

from repro.core.thresholds import ThresholdConfig
from repro.fastmodel.model import fast_run_adts, fast_run_fixed
from repro.harness.report import format_series
from repro.workloads.mixes import mix_names

THRESHOLDS = (1.0, 2.0, 3.0, 4.0, 5.0)
HEURISTICS = ("type1", "type2", "type3", "type3g", "type4")
QUANTA = 96


def full_grid():
    mixes = mix_names()
    fixed = {
        p: float(np.mean([fast_run_fixed(m, p, quanta=QUANTA).ipc for m in mixes]))
        for p in ("icount", "brcount", "l1misscount", "rr")
    }
    ipc, switches, benign = {}, {}, {}
    for m in THRESHOLDS:
        th = ThresholdConfig(ipc_threshold=m)
        for h in HEURISTICS:
            runs = [fast_run_adts(mix, h, th, quanta=QUANTA) for mix in mixes]
            ipc[(m, h)] = float(np.mean([r.ipc for r in runs]))
            switches[(m, h)] = sum(r.switches for r in runs)
            judged = sum(r.switches for r in runs)
            benign[(m, h)] = (
                sum(r.benign_probability * r.switches for r in runs) / judged
                if judged else 0.0
            )
    return fixed, ipc, switches, benign


def test_full_grid_on_fast_model(benchmark):
    fixed, ipc, switches, benign = benchmark.pedantic(full_grid, rounds=1, iterations=1)
    print()
    print("fixed policies (13-mix mean):", {k: round(v, 3) for k, v in fixed.items()})
    for h in HEURISTICS:
        print(format_series(f"IPC[{h}]", THRESHOLDS, [ipc[(m, h)] for m in THRESHOLDS]))
    for h in HEURISTICS:
        print(format_series(f"switches[{h}]", THRESHOLDS, [switches[(m, h)] for m in THRESHOLDS]))
    for h in HEURISTICS:
        print(format_series(f"P(benign)[{h}]", THRESHOLDS, [benign[(m, h)] for m in THRESHOLDS]))
    best = max(ipc, key=ipc.get)
    print(f"best cell: threshold {best[0]:g}, {best[1]} -> {ipc[best]:.3f} "
          f"({ipc[best] / fixed['icount'] - 1:+.2%} vs fixed ICOUNT)")
    save_result("F7F8_fastmodel_full_grid", {
        "fixed": fixed,
        "ipc": {f"{m:g},{h}": v for (m, h), v in ipc.items()},
        "switches": {f"{m:g},{h}": v for (m, h), v in switches.items()},
        "benign": {f"{m:g},{h}": v for (m, h), v in benign.items()},
        "best_cell": {"threshold": best[0], "heuristic": best[1], "ipc": ipc[best]},
    })

    # Table-1 ordering at full scale.
    assert fixed["icount"] == max(fixed.values())
    assert fixed["rr"] == min(fixed.values())
    # Fig 7(a): growth then saturation of switch counts (small jitter on
    # the saturated plateau allowed).
    for h in HEURISTICS:
        counts = [switches[(m, h)] for m in THRESHOLDS]
        assert counts[0] <= counts[2] * 1.02 + 2
        assert counts[2] <= counts[4] * 1.02 + 2
        assert counts[4] > counts[0]
    # Fig 7(c): benign probability declines from low to high thresholds.
    for h in HEURISTICS:
        assert benign[(1.0, h)] >= benign[(5.0, h)] - 0.05
    # Fig 8: interior optimum at or near threshold 2, beating fixed ICOUNT.
    best_m, best_h = best
    assert best_m in (2.0, 3.0), f"interior optimum expected, got {best_m}"
    assert ipc[best] > fixed["icount"]
    # Per-type curves peak away from the extreme threshold 5.
    for h in HEURISTICS:
        curve = [ipc[(m, h)] for m in THRESHOLDS]
        assert max(curve) >= curve[-1]

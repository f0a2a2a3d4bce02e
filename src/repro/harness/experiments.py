"""Canonical experiment definitions — one function per paper artifact.

Each experiment returns a plain dict of series/rows (JSON-friendly) and has
a ``quick`` mode (sub-minute, fewer mixes/quanta — the pytest-benchmark
default) and a full mode approximating the paper's scale. The experiment
ids (T1, F7a–F8d, S1–S6, A1–A3) are indexed in DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.thresholds import ThresholdConfig
from repro.faults.plan import FaultPlan
from repro.harness.runner import RunConfig, run_adts, run_fixed
from repro.harness.sweep import SweepResult, threshold_type_grid
from repro.policies.registry import POLICY_NAMES
from repro.workloads.mixes import MIXES, get_mix


@dataclass(frozen=True)
class ExperimentDefaults:
    """Shared knobs for the experiment suite."""

    quantum_cycles: int = 2048
    quanta: int = 24
    warmup_quanta: int = 4
    seed: int = 0
    quick_mixes: Sequence[str] = ("mix02", "mix05", "mix07", "mix10")
    full_mixes: Sequence[str] = tuple(m.name for m in MIXES)
    thresholds: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0)
    heuristics: Sequence[str] = ("type1", "type2", "type3", "type3g", "type4")

    def mixes(self, quick: bool) -> List[str]:
        """The mix set for quick or full mode."""
        return list(self.quick_mixes if quick else self.full_mixes)

    def base_run(self) -> RunConfig:
        """A RunConfig carrying these defaults."""
        return RunConfig(
            quantum_cycles=self.quantum_cycles,
            quanta=self.quanta,
            warmup_quanta=self.warmup_quanta,
            seed=self.seed,
        )


DEFAULTS = ExperimentDefaults()


# ---------------------------------------------------------------------------
# T1 — Table 1: the ten fixed fetch policies.
# ---------------------------------------------------------------------------
def experiment_table1(
    defaults: ExperimentDefaults = DEFAULTS,
    quick: bool = True,
    policies: Optional[Sequence[str]] = None,
) -> Dict:
    """Fixed-policy comparison across mixes. Checks the Tullsen orderings:
    ICOUNT best on average, RR worst."""
    policies = list(policies or POLICY_NAMES)
    mixes = defaults.mixes(quick)
    base = defaults.base_run()
    rows = []
    means = {}
    for policy in policies:
        ipcs = [run_fixed(replace(base, mix=mix, policy=policy)).ipc for mix in mixes]
        mean = sum(ipcs) / len(ipcs)
        means[policy] = mean
        rows.append({"policy": policy, "mean_ipc": mean, "per_mix": dict(zip(mixes, ipcs))})
    rows.sort(key=lambda r: -r["mean_ipc"])
    return {"experiment": "T1", "mixes": mixes, "rows": rows, "mean_ipc": means}


# ---------------------------------------------------------------------------
# F7a–d / F8a–d — the threshold x type grid.
# ---------------------------------------------------------------------------
def experiment_fig8(sweep: SweepResult, icount_baseline: float) -> Dict:
    """Figure 8 series plus the best-cell claim (threshold 2, Type 3)."""
    best = sweep.best_cell()
    best_ipc = sweep.ipc[best]
    return {
        "experiment": "F8",
        "thresholds": sweep.thresholds,
        "heuristics": sweep.heuristics,
        "ipc_vs_threshold": {h: sweep.series_ipc_vs_threshold(h) for h in sweep.heuristics},
        "ipc_vs_type": {m: sweep.series_ipc_vs_type(m) for m in sweep.thresholds},
        "best_cell": {"threshold": best[0], "heuristic": best[1], "ipc": best_ipc},
        "icount_baseline_ipc": icount_baseline,
        "best_improvement_over_icount": (
            best_ipc / icount_baseline - 1.0 if icount_baseline else 0.0
        ),
    }


def run_grid(
    defaults: ExperimentDefaults = DEFAULTS,
    quick: bool = True,
    journal=None,
    executor=None,
    mixes: Optional[Sequence[str]] = None,
    fault_plan: Optional[FaultPlan] = None,
    batch: Optional[int] = None,
) -> SweepResult:
    """The shared F7/F8 grid (optionally journaled/supervised — see
    :func:`~repro.harness.sweep.threshold_type_grid`). ``mixes`` overrides
    the quick/full mix set (smaller smoke grids); ``fault_plan`` applies to
    every cell (disk-only plans leave the aggregate identical); ``batch``
    chunks the lockstep batches N cells at a time instead of one batch
    per mix (bit-identical, journal-compatible with any other batch
    size)."""
    return threshold_type_grid(
        defaults.base_run(),
        list(mixes) if mixes is not None else defaults.mixes(quick),
        thresholds=defaults.thresholds,
        heuristics=defaults.heuristics,
        journal=journal,
        executor=executor,
        fault_plan=fault_plan,
        batch=batch,
    )


# ---------------------------------------------------------------------------
# S6-1 — headline: best ADTS cell vs fixed ICOUNT.
# ---------------------------------------------------------------------------
def experiment_headline(
    defaults: ExperimentDefaults = DEFAULTS,
    quick: bool = True,
    threshold: float = 2.0,
    heuristic: str = "type3",
) -> Dict:
    """ADTS at the paper's best setting vs. fixed ICOUNT, per mix."""
    mixes = defaults.mixes(quick)
    base = defaults.base_run()
    th = ThresholdConfig(ipc_threshold=threshold)
    per_mix = {}
    for mix in mixes:
        fixed = run_fixed(replace(base, mix=mix, policy="icount"))
        adts = run_adts(replace(base, mix=mix), heuristic=heuristic, thresholds=th)
        per_mix[mix] = {
            "icount_ipc": fixed.ipc,
            "adts_ipc": adts.ipc,
            "improvement": adts.ipc / fixed.ipc - 1.0 if fixed.ipc else 0.0,
            "switches": adts.scheduler.get("switches", 0),
        }
    mean_fixed = sum(v["icount_ipc"] for v in per_mix.values()) / len(per_mix)
    mean_adts = sum(v["adts_ipc"] for v in per_mix.values()) / len(per_mix)
    return {
        "experiment": "S6-1",
        "threshold": threshold,
        "heuristic": heuristic,
        "per_mix": per_mix,
        "mean_icount_ipc": mean_fixed,
        "mean_adts_ipc": mean_adts,
        "mean_improvement": mean_adts / mean_fixed - 1.0 if mean_fixed else 0.0,
    }


# ---------------------------------------------------------------------------
# S6-2 — mixture similarity: homogeneous vs diverse mixes.
# ---------------------------------------------------------------------------
def experiment_similarity(
    defaults: ExperimentDefaults = DEFAULTS,
    threshold: float = 2.0,
    heuristic: str = "type3",
    homogeneous: Sequence[str] = ("mix09", "mix10", "mix11"),
    diverse: Sequence[str] = ("mix05", "mix12", "mix13"),
) -> Dict:
    """The §6 finding: similar-application mixes gain more from ADTS."""
    base = defaults.base_run()
    th = ThresholdConfig(ipc_threshold=threshold)

    def group_improvement(mixes: Sequence[str]) -> Dict:
        gains, sims = [], []
        for mix in mixes:
            fixed = run_fixed(replace(base, mix=mix, policy="icount"))
            adts = run_adts(replace(base, mix=mix), heuristic=heuristic, thresholds=th)
            gains.append(adts.ipc / fixed.ipc - 1.0 if fixed.ipc else 0.0)
            sims.append(get_mix(mix).similarity())
        return {
            "mixes": list(mixes),
            "mean_improvement": sum(gains) / len(gains),
            "per_mix_improvement": dict(zip(mixes, gains)),
            "mean_similarity": sum(sims) / len(sims),
        }

    return {
        "experiment": "S6-2",
        "homogeneous": group_improvement(homogeneous),
        "diverse": group_improvement(diverse),
    }


# ---------------------------------------------------------------------------
# S1 — thread-count scaling: fixed ICOUNT vs ADTS at 2/4/6/8 threads.
# ---------------------------------------------------------------------------
def experiment_thread_scaling(
    defaults: ExperimentDefaults = DEFAULTS,
    mix: str = "mix05",
    thread_counts: Sequence[int] = (2, 4, 6, 8),
    threshold: float = 2.0,
    heuristic: str = "type3",
) -> Dict:
    """Throughput vs. context count (the §1 saturation effect)."""
    base = defaults.base_run()
    th = ThresholdConfig(ipc_threshold=threshold)
    rows = []
    for n in thread_counts:
        cfg = replace(base, mix=mix, num_threads=n)
        fixed = run_fixed(replace(cfg, policy="icount"))
        adts = run_adts(cfg, heuristic=heuristic, thresholds=th)
        rows.append(
            {
                "threads": n,
                "icount_ipc": fixed.ipc,
                "adts_ipc": adts.ipc,
            }
        )
    return {"experiment": "S1", "mix": mix, "rows": rows}


# ---------------------------------------------------------------------------
# S3 — detector-thread overhead/feasibility.
# ---------------------------------------------------------------------------
def experiment_detector_overhead(
    defaults: ExperimentDefaults = DEFAULTS,
    mix: str = "mix05",
    threshold: float = 2.0,
    heuristic: str = "type3",
) -> Dict:
    """DT slot consumption, task latency and starvation; plus the
    instant-DT (zero-cost) ablation to bound the overhead's IPC impact."""
    base = replace(defaults.base_run(), mix=mix)
    th = ThresholdConfig(ipc_threshold=threshold)
    real = run_adts(base, heuristic=heuristic, thresholds=th, instant_dt=False)
    instant = run_adts(base, heuristic=heuristic, thresholds=th, instant_dt=True)
    return {
        "experiment": "S3",
        "mix": mix,
        "real_dt": {
            "ipc": real.ipc,
            "dt_instructions": real.scheduler.get("dt_instructions", 0),
            "dt_starved_cycles": real.scheduler.get("dt_starved_cycles", 0),
            "dt_mean_task_latency": real.scheduler.get("dt_mean_task_latency", 0.0),
            "missed_decisions": real.scheduler.get("missed_decisions", 0),
        },
        "instant_dt": {"ipc": instant.ipc},
        "dt_overhead_ipc_cost": (
            instant.ipc / real.ipc - 1.0 if real.ipc else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# S7 — resilience: ADTS under a seeded fault storm vs. a clean run.
# ---------------------------------------------------------------------------
def experiment_resilience(
    defaults: ExperimentDefaults = DEFAULTS,
    mix: str = "mix05",
    threshold: float = 2.0,
    heuristic: str = "type3",
    fault_rate: float = 0.35,
    fault_seed: int = 0,
) -> Dict:
    """Graceful-degradation check: the same (mix, seed) run clean and under
    a full fault storm (stale/flipped counters, DT loss and starvation,
    dropped/spurious policy commands, transient thread hangs).

    Reports the IPC degradation and the watchdog's reaction — the claim
    under test is that the controller survives (no crash), detects the
    corruption, and bounds the damage by falling back to fixed ICOUNT.
    """
    base = replace(defaults.base_run(), mix=mix)
    th = ThresholdConfig(ipc_threshold=threshold)
    clean = run_adts(base, heuristic=heuristic, thresholds=th)
    plan = FaultPlan.storm(seed=fault_seed, rate=fault_rate)
    faulty = run_adts(base, heuristic=heuristic, thresholds=th, fault_plan=plan)
    return {
        "experiment": "S7",
        "mix": mix,
        "fault_rate": fault_rate,
        "fault_seed": fault_seed,
        "clean_ipc": clean.ipc,
        "faulty_ipc": faulty.ipc,
        "ipc_degradation": (
            1.0 - faulty.ipc / clean.ipc if clean.ipc else 0.0
        ),
        "faults_injected": faulty.scheduler.get("faults_injected", 0),
        "fault_counts": faulty.scheduler.get("fault_counts", {}),
        "fallback_events": faulty.scheduler.get("fallback_events", 0),
        "implausible_quanta": faulty.scheduler.get("implausible_quanta", 0),
        "safe_mode_quanta": faulty.scheduler.get("safe_mode_quanta", 0),
        "missed_decisions": faulty.scheduler.get("missed_decisions", 0),
    }

"""Calibration constants for the fast model.

The fast model's constants were chosen so that its per-mix fixed-policy
IPCs and policy orderings track the detailed simulator on the quick mix set
(see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CalibrationConstants:
    """Free parameters of the fast model's contention/CPI equations.

    CPI model (per thread):
        cpi = base_cpi + mispredict_rate*branch_frac*mispredict_cost
            + load_frac*(l1_miss*l2_latency + l2_miss_bpi*mem_latency)*mlp_damp

    Contention model: threads share ``fetch_bandwidth`` useful slots per
    cycle; the active policy sets an allocation efficiency (how well slots
    go to threads that can use them) and a per-policy misallocation cost.
    """

    base_cpi: float = 1.15
    mispredict_cost: float = 14.0
    l2_latency: float = 11.0
    mem_latency: float = 111.0
    mlp_damp: float = 0.50
    fetch_bandwidth: float = 3.0
    smt_overhead: float = 0.12  # fraction of bandwidth lost to sharing
    # Policy allocation-efficiency terms: eff = base + storm_delta *
    # storm_share + mem_delta * mem_share. ICOUNT is the best general
    # allocator but bleeds fetch slots to wrong-path instructions when
    # threads are in misprediction storms (§1) and keeps feeding
    # memory-thrashing threads whose pipes look empty; the cause-specific
    # policies are worse allocators in general but recover those slots.
    icount_base: float = 0.97
    icount_storm_delta: float = -1.50
    icount_mem_delta: float = -0.45
    brcount_base: float = 0.87
    brcount_storm_delta: float = +0.18
    brcount_mem_delta: float = -0.15
    l1miss_base: float = 0.87
    l1miss_storm_delta: float = -0.10
    l1miss_mem_delta: float = +0.20
    rr_base: float = 0.82
    noise_sigma: float = 0.08  # per-quantum AR(1) noise
    noise_rho: float = 0.4


DEFAULT_CONSTANTS = CalibrationConstants()

"""Custom-workload construction API.

The built-in profile table models SPEC CPU2000; downstream users studying
scheduling policies usually also want *extreme* synthetic behaviours
(pure pointer chase, pure streaming, pure branch storm) and parametric
families. This module provides validated builders and presets.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.profiles import ApplicationProfile


def make_profile(
    name: str,
    ilp: float = 1.0,
    memory_intensity: float = 0.3,
    footprint_mb: float = 1.0,
    branchiness: float = 0.5,
    predictability: float = 0.9,
    fp_share: float = 0.0,
    streaming: float = 0.1,
) -> ApplicationProfile:
    """Build a profile from five intuitive 0–1-ish axes.

    Args:
        name: profile name.
        ilp: 0 (serial dependence chains) .. ~2 (very parallel code).
        memory_intensity: fraction of instructions that touch memory.
        footprint_mb: data working-set size in MB.
        branchiness: 0 (straight-line) .. 1 (branch every other op).
        predictability: branch predictability, 0.5 (coin flips) .. 1.0.
        fp_share: fraction of compute that is floating point.
        streaming: fraction of accesses that stream sequentially.
    """
    if not 0.0 <= memory_intensity <= 0.7:
        raise ValueError("memory_intensity must be in [0, 0.7]")
    if not 0.0 <= branchiness <= 1.0:
        raise ValueError("branchiness must be in [0, 1]")
    if not 0.5 <= predictability <= 1.0:
        raise ValueError("predictability must be in [0.5, 1.0]")
    if footprint_mb <= 0:
        raise ValueError("footprint_mb must be positive")
    if ilp <= 0:
        raise ValueError("ilp must be positive")

    avg_block = max(2, round(2 + 14 * (1.0 - branchiness)))
    load_frac = round(memory_intensity * 0.75, 3)
    store_frac = round(memory_intensity * 0.25, 3)
    ipc_class = "high" if ilp > 1.2 else ("med" if ilp > 0.7 else "low")
    return ApplicationProfile(
        name=name,
        suite="fp" if fp_share > 0.5 else "int",
        ipc_class=ipc_class,
        footprint_kb=max(16, int(footprint_mb * 1024)),
        hot_kb=max(8, min(128, int(footprint_mb * 64))),
        hot_fraction=max(0.1, min(0.95, 1.0 - memory_intensity)),
        stream_fraction=streaming,
        code_kb=max(8, int(16 + 128 * branchiness)),
        avg_block=avg_block,
        mispredict_target=round(min(0.5, (1.0 - predictability)), 4),
        load_frac=load_frac,
        store_frac=store_frac,
        fp_frac=fp_share,
        dep_mean=max(1.0, 4.0 * ilp),
        mem_dep_frac=max(0.05, min(0.8, memory_intensity + 0.2)),
    )


#: Extreme presets: one pathological behaviour each.
PRESETS: Dict[str, ApplicationProfile] = {
    "pointer_chase": make_profile(
        "pointer_chase", ilp=0.4, memory_intensity=0.5, footprint_mb=128,
        branchiness=0.3, predictability=0.92, streaming=0.0,
    ),
    "stream": make_profile(
        "stream", ilp=1.8, memory_intensity=0.45, footprint_mb=256,
        branchiness=0.05, predictability=0.995, fp_share=0.8, streaming=0.7,
    ),
    "branch_storm": make_profile(
        "branch_storm", ilp=1.0, memory_intensity=0.2, footprint_mb=0.25,
        branchiness=1.0, predictability=0.78,
    ),
    "compute": make_profile(
        "compute", ilp=2.0, memory_intensity=0.1, footprint_mb=0.25,
        branchiness=0.2, predictability=0.98,
    ),
}


def get_preset(name: str) -> ApplicationProfile:
    """Look up an extreme-behaviour preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None

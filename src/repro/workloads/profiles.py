"""Per-application statistical profiles.

Each profile captures an application's behaviour along the axes the paper
uses to form mixes (single-thread IPC class, memory footprint, int/fp) plus
the dynamic event rates the ADTS heuristics observe. Values approximate the
published characterizations of the SPEC CPU2000 programs (Henning, IEEE
Computer 33(7); Tullsen et al.; KleinOsowski & Lilja) — they need to be
*representative*, not exact, since the paper's mechanism consumes only
coarse per-quantum counters.

Phases: most SPEC programs alternate between qualitatively different
execution phases (e.g. mcf's pointer-chasing vs. bookkeeping). Phase
variation is what gives an *adaptive* policy room over any fixed policy, so
profiles carry a small Markov phase model; scales multiply the base values
while a phase is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class PhaseProfile:
    """Multiplicative overrides active while a phase holds.

    Attributes:
        name: label for debugging/reporting.
        weight: stationary probability of being in this phase.
        mean_length: mean phase length in *instructions* (geometric).
        mispredict_scale: multiplies the profile's branch minority rate.
        footprint_scale: multiplies the data footprint (capacity pressure).
        load_scale: multiplies the load fraction.
        dep_scale: multiplies the mean dependence distance (ILP).
    """

    name: str = "base"
    weight: float = 1.0
    mean_length: int = 30_000
    mispredict_scale: float = 1.0
    footprint_scale: float = 1.0
    load_scale: float = 1.0
    dep_scale: float = 1.0


@dataclass(frozen=True)
class ApplicationProfile:
    """Statistical model of one application.

    Attributes:
        name: SPEC-like program name.
        suite: ``"int"`` or ``"fp"``.
        ipc_class: ``"high"`` / ``"med"`` / ``"low"`` — the paper's first
            mix-formation axis (single-thread IPC).
        footprint_kb: data working-set size; drives L1D/L2 miss rates.
        hot_kb: size of the high-locality subset of the footprint.
        hot_fraction: fraction of data accesses hitting the hot subset.
        stream_fraction: fraction of accesses that stream sequentially.
        code_kb: instruction footprint; drives L1I miss rate.
        avg_block: mean basic-block length (instructions per branch).
        cond_branch_frac: fraction of branches that are conditional.
        mispredict_target: mean per-site minority outcome probability —
            approximately the misprediction rate a 2-bit predictor sees.
        load_frac / store_frac: memory-op densities (of all instructions).
        fp_frac: fraction of non-memory compute ops that are FP.
        fdiv_frac / fmul_frac: split within FP ops.
        imul_frac: integer-multiply share of integer compute ops.
        dep_mean: mean producer distance in instructions (higher = more ILP).
        mem_dep_frac: probability a dependence chains onto a recent load.
        syscall_rate: per-instruction probability of a system call.
        phases: Markov phase set (weights need not be normalized).
    """

    name: str
    suite: str
    ipc_class: str
    footprint_kb: int
    hot_kb: int = 16
    hot_fraction: float = 0.75
    stream_fraction: float = 0.10
    code_kb: int = 64
    avg_block: int = 6
    cond_branch_frac: float = 0.85
    mispredict_target: float = 0.06
    load_frac: float = 0.25
    store_frac: float = 0.10
    fp_frac: float = 0.0
    fdiv_frac: float = 0.05
    fmul_frac: float = 0.35
    imul_frac: float = 0.03
    dep_mean: float = 4.0
    mem_dep_frac: float = 0.35
    syscall_rate: float = 0.0
    phases: Tuple[PhaseProfile, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError(f"{self.name}: suite must be 'int' or 'fp'")
        if self.ipc_class not in ("high", "med", "low"):
            raise ValueError(f"{self.name}: ipc_class must be high/med/low")
        if self.footprint_kb <= 0 or self.hot_kb <= 0 or self.code_kb <= 0:
            raise ValueError(f"{self.name}: footprints must be positive")
        if self.avg_block < 2:
            raise ValueError(f"{self.name}: avg_block must be >= 2")
        if not 0.0 <= self.load_frac + self.store_frac <= 0.9:
            raise ValueError(f"{self.name}: memory-op fraction out of range")
        if not 0.0 <= self.mispredict_target <= 0.5:
            raise ValueError(f"{self.name}: mispredict_target must be in [0, 0.5]")
        if self.dep_mean < 1.0:
            raise ValueError(f"{self.name}: dep_mean must be >= 1")

    @property
    def branch_frac(self) -> float:
        """Dynamic branch density implied by the basic-block length."""
        return 1.0 / self.avg_block

    @property
    def is_fp(self) -> bool:
        return self.suite == "fp"

    @property
    def memory_bound(self) -> bool:
        """Heuristic classification used by mix construction."""
        return self.footprint_kb >= 2048 or self.hot_fraction < 0.55


def _two_phase(
    compute_len: int = 40_000,
    memory_len: int = 20_000,
    footprint_scale: float = 6.0,
    load_scale: float = 1.7,
) -> Tuple[PhaseProfile, ...]:
    """Common compute/memory alternation."""
    return (
        PhaseProfile("compute", weight=2.0, mean_length=compute_len),
        PhaseProfile(
            "memory",
            weight=1.0,
            mean_length=memory_len,
            footprint_scale=footprint_scale,
            load_scale=load_scale,
            dep_scale=0.8,
        ),
    )


def _branchy_phase(quiet_len: int = 50_000, storm_len: int = 15_000) -> Tuple[PhaseProfile, ...]:
    """Alternation between predictable and misprediction-storm phases
    (the paper's §1 motivating scenario for BRCOUNT)."""
    return (
        PhaseProfile("predictable", weight=3.0, mean_length=quiet_len, mispredict_scale=0.4),
        PhaseProfile("storm", weight=0.65, mean_length=storm_len, mispredict_scale=5.0),
    )


# ---------------------------------------------------------------------------
# SPEC CPU2000-inspired profile set.
# ---------------------------------------------------------------------------
_PROFILE_LIST = [
    # ---- CINT2000 -------------------------------------------------------
    ApplicationProfile(
        "gzip", "int", "high", footprint_kb=180, hot_kb=32, hot_fraction=0.85,
        code_kb=24, avg_block=7, mispredict_target=0.055, load_frac=0.22,
        store_frac=0.09, dep_mean=4.5, phases=_two_phase(60_000, 15_000, 2.0),
    ),
    ApplicationProfile(
        "vpr", "int", "med", footprint_kb=2048, hot_kb=64, hot_fraction=0.60,
        code_kb=96, avg_block=6, mispredict_target=0.075, load_frac=0.28,
        store_frac=0.10, dep_mean=3.5, phases=_two_phase(35_000, 25_000, 2.5),
    ),
    ApplicationProfile(
        "gcc", "int", "med", footprint_kb=1400, hot_kb=48, hot_fraction=0.65,
        code_kb=512, avg_block=4, mispredict_target=0.075, load_frac=0.26,
        store_frac=0.13, dep_mean=3.0, phases=_branchy_phase(),
    ),
    ApplicationProfile(
        "mcf", "int", "low", footprint_kb=65_536, hot_kb=32, hot_fraction=0.35,
        stream_fraction=0.05, code_kb=16, avg_block=6, mispredict_target=0.08,
        load_frac=0.33, store_frac=0.08, dep_mean=2.5, mem_dep_frac=0.6,
        phases=_two_phase(25_000, 45_000, 1.5, 1.3),
    ),
    ApplicationProfile(
        "crafty", "int", "high", footprint_kb=768, hot_kb=64, hot_fraction=0.80,
        code_kb=160, avg_block=4, mispredict_target=0.085, load_frac=0.27,
        store_frac=0.07, dep_mean=4.0, phases=_branchy_phase(40_000, 20_000),
    ),
    ApplicationProfile(
        "parser", "int", "med", footprint_kb=12_288, hot_kb=40, hot_fraction=0.55,
        code_kb=128, avg_block=5, mispredict_target=0.075, load_frac=0.26,
        store_frac=0.11, dep_mean=3.0, phases=_two_phase(30_000, 20_000, 2.0),
    ),
    ApplicationProfile(
        "eon", "int", "high", footprint_kb=256, hot_kb=48, hot_fraction=0.90,
        code_kb=192, avg_block=7, mispredict_target=0.025, load_frac=0.28,
        store_frac=0.14, fp_frac=0.35, dep_mean=5.0,
    ),
    ApplicationProfile(
        "perlbmk", "int", "med", footprint_kb=20_480, hot_kb=56, hot_fraction=0.70,
        code_kb=384, avg_block=4, mispredict_target=0.065, load_frac=0.29,
        store_frac=0.15, dep_mean=3.5, syscall_rate=2e-5, phases=_branchy_phase(),
    ),
    ApplicationProfile(
        "gap", "int", "med", footprint_kb=32_768, hot_kb=64, hot_fraction=0.70,
        code_kb=96, avg_block=6, mispredict_target=0.045, load_frac=0.26,
        store_frac=0.10, imul_frac=0.08, dep_mean=4.0,
        phases=_two_phase(45_000, 20_000, 2.5),
    ),
    ApplicationProfile(
        "vortex", "int", "high", footprint_kb=49_152, hot_kb=96, hot_fraction=0.75,
        code_kb=256, avg_block=6, mispredict_target=0.02, load_frac=0.30,
        store_frac=0.17, dep_mean=5.0, syscall_rate=1e-5,
    ),
    ApplicationProfile(
        "bzip2", "int", "high", footprint_kb=90_112, hot_kb=48, hot_fraction=0.80,
        stream_fraction=0.20, code_kb=24, avg_block=7, mispredict_target=0.07,
        load_frac=0.25, store_frac=0.10, dep_mean=4.5,
        phases=_two_phase(55_000, 20_000, 2.0),
    ),
    ApplicationProfile(
        "twolf", "int", "low", footprint_kb=1536, hot_kb=32, hot_fraction=0.60,
        code_kb=128, avg_block=5, mispredict_target=0.08, load_frac=0.27,
        store_frac=0.09, dep_mean=2.8, phases=_two_phase(30_000, 30_000, 2.0),
    ),
    # ---- CFP2000 --------------------------------------------------------
    ApplicationProfile(
        "wupwise", "fp", "high", footprint_kb=180_224, hot_kb=128, hot_fraction=0.70,
        stream_fraction=0.25, code_kb=32, avg_block=10, cond_branch_frac=0.7,
        mispredict_target=0.01, load_frac=0.28, store_frac=0.12, fp_frac=0.75,
        dep_mean=6.0,
    ),
    ApplicationProfile(
        "swim", "fp", "low", footprint_kb=196_608, hot_kb=64, hot_fraction=0.30,
        stream_fraction=0.55, code_kb=16, avg_block=14, cond_branch_frac=0.6,
        mispredict_target=0.008, load_frac=0.32, store_frac=0.14, fp_frac=0.85,
        dep_mean=7.0, mem_dep_frac=0.5,
    ),
    ApplicationProfile(
        "mgrid", "fp", "med", footprint_kb=57_344, hot_kb=96, hot_fraction=0.45,
        stream_fraction=0.45, code_kb=16, avg_block=16, cond_branch_frac=0.6,
        mispredict_target=0.006, load_frac=0.35, store_frac=0.08, fp_frac=0.85,
        dep_mean=6.5, phases=_two_phase(50_000, 30_000, 1.8),
    ),
    ApplicationProfile(
        "applu", "fp", "med", footprint_kb=184_320, hot_kb=96, hot_fraction=0.50,
        stream_fraction=0.40, code_kb=48, avg_block=13, cond_branch_frac=0.65,
        mispredict_target=0.01, load_frac=0.31, store_frac=0.11, fp_frac=0.80,
        fdiv_frac=0.08, dep_mean=5.5,
    ),
    ApplicationProfile(
        "mesa", "fp", "high", footprint_kb=9216, hot_kb=64, hot_fraction=0.85,
        code_kb=320, avg_block=7, mispredict_target=0.03, load_frac=0.27,
        store_frac=0.13, fp_frac=0.55, dep_mean=5.0,
    ),
    ApplicationProfile(
        "art", "fp", "low", footprint_kb=3584, hot_kb=24, hot_fraction=0.30,
        stream_fraction=0.50, code_kb=16, avg_block=8, cond_branch_frac=0.75,
        mispredict_target=0.012, load_frac=0.36, store_frac=0.06, fp_frac=0.70,
        dep_mean=3.0, mem_dep_frac=0.65, phases=_two_phase(20_000, 40_000, 1.5, 1.2),
    ),
    ApplicationProfile(
        "equake", "fp", "low", footprint_kb=49_152, hot_kb=48, hot_fraction=0.40,
        stream_fraction=0.30, code_kb=24, avg_block=9, cond_branch_frac=0.7,
        mispredict_target=0.015, load_frac=0.34, store_frac=0.09, fp_frac=0.75,
        dep_mean=3.5, mem_dep_frac=0.6,
    ),
    ApplicationProfile(
        "ammp", "fp", "low", footprint_kb=26_624, hot_kb=40, hot_fraction=0.45,
        code_kb=64, avg_block=9, cond_branch_frac=0.7, mispredict_target=0.02,
        load_frac=0.32, store_frac=0.08, fp_frac=0.75, fdiv_frac=0.10,
        dep_mean=3.0, mem_dep_frac=0.55, phases=_two_phase(30_000, 35_000, 1.8),
    ),
    ApplicationProfile(
        "lucas", "fp", "med", footprint_kb=143_360, hot_kb=128, hot_fraction=0.55,
        stream_fraction=0.35, code_kb=16, avg_block=18, cond_branch_frac=0.55,
        mispredict_target=0.005, load_frac=0.30, store_frac=0.12, fp_frac=0.90,
        fmul_frac=0.55, dep_mean=6.0,
    ),
]

#: All known profiles, keyed by name.
PROFILES: Dict[str, ApplicationProfile] = {p.name: p for p in _PROFILE_LIST}


def get_profile(name: str) -> ApplicationProfile:
    """Look up a profile by SPEC-like program name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown application profile {name!r}; known: {sorted(PROFILES)}") from None

"""The fast quantum-level model.

Each thread is a Markov phase chain over its profile's phases; a quantum
maps the 8 threads' current phase states plus the active fetch policy to an
aggregate IPC through a two-part closed form:

* **per-thread demand** — a CPI model (base + branch penalty + memory
  stalls, damped by MLP) gives each thread's standalone throughput;
* **shared supply** — the fetch engine delivers ``fetch_bandwidth`` useful
  slots/cycle scaled by a *policy allocation efficiency* that depends on
  the mix state: ICOUNT is the best allocator in general but bleeds slots
  to wrong-path fetch when threads are in misprediction storms; BRCOUNT is
  a worse general allocator but recovers those slots; L1MISSCOUNT likewise
  for memory phases; RR is simply worse. These terms encode, at quantum
  granularity, exactly the §1 slot-waste mechanisms the detailed pipeline
  exhibits cycle by cycle.

The *actual* Type 1–4 heuristic implementations from
:mod:`repro.core.heuristics` drive policy switching on the model's emitted
:class:`~repro.core.quantum.QuantumObservation`s, so fast-model sweeps
exercise the real decision code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.heuristics import create_heuristic
from repro.core.heuristics.base import Heuristic
from repro.core.history import SwitchQualityLedger
from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig
from repro.fastmodel.calibrate import DEFAULT_CONSTANTS
from repro.util.seeds import SeedSequencer
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import ApplicationProfile, PhaseProfile, get_profile

_BASE_PHASE = PhaseProfile()


def _l1_miss_per_load(p: ApplicationProfile, footprint_scale: float) -> float:
    """First-order L1D miss probability per load, mirroring the address
    generator's class structure (refresh + stream compulsory + cold/mid)."""
    hot = p.hot_fraction
    stream = p.stream_fraction
    other = max(0.0, 1.0 - hot - stream)
    return min(0.95, 0.12 * hot + stream / 8.0 + 0.85 * other)


def _dram_per_load(p: ApplicationProfile, footprint_scale: float) -> float:
    """First-order DRAM-trip probability per load (cold class + stream
    spill), mirroring ``DataAddressGenerator._cold_share``."""
    footprint = p.footprint_kb * 1024 * footprint_scale
    size_pressure = min(1.0, footprint / (64 * 1024 * 1024))
    locality_deficit = max(0.0, 1.0 - p.hot_fraction)
    cold_share = min(0.9, 0.10 + 0.5 * size_pressure * locality_deficit)
    other = max(0.0, 1.0 - p.hot_fraction - p.stream_fraction)
    return min(0.9, other * cold_share + 0.25 * p.stream_fraction / 8.0)


@dataclass
class _ThreadState:
    profile: ApplicationProfile
    phases: Tuple[PhaseProfile, ...]
    weights: np.ndarray
    phase: PhaseProfile
    remaining: int  # instructions left in the current phase
    # (l1_miss_per_load, dram_per_load) per phase, precomputed at
    # construction: the rates depend only on (profile, footprint_scale),
    # both fixed per phase, so recomputing them every quantum is waste.
    derived: Tuple[Tuple[float, float], ...] = ()
    phase_idx: int = 0

    @property
    def storming(self) -> bool:
        return self.phase.mispredict_scale > 1.5

    @property
    def memory_phase(self) -> bool:
        return self.phase.footprint_scale > 2.0 or self.phase.load_scale > 1.3


#: Per-policy (base-constant name, storm-delta scale, mem-delta scale);
#: scales multiply the corresponding brcount/l1miss deltas so the whole
#: Table 1 family is expressible from the four calibrated policies.
_POLICY_TRAITS: Dict[str, Tuple[str, str, float, str, float]] = {
    "icount": ("icount_base", "icount_storm_delta", 1.0, "icount_mem_delta", 1.0),
    "brcount": ("brcount_base", "brcount_storm_delta", 1.0, "brcount_mem_delta", 1.0),
    "l1misscount": ("l1miss_base", "l1miss_storm_delta", 1.0, "l1miss_mem_delta", 1.0),
    "l1dmisscount": ("l1miss_base", "l1miss_storm_delta", 1.0, "l1miss_mem_delta", 0.9),
    "l1imisscount": ("l1miss_base", "l1miss_storm_delta", 1.0, "l1miss_mem_delta", 0.4),
    "ldcount": ("l1miss_base", "l1miss_storm_delta", 1.0, "l1miss_mem_delta", 0.7),
    "memcount": ("l1miss_base", "l1miss_storm_delta", 1.0, "l1miss_mem_delta", 0.8),
    "accipc": ("rr_base", "icount_storm_delta", 0.3, "icount_mem_delta", 0.3),
    "stallcount": ("brcount_base", "brcount_storm_delta", 0.5, "l1miss_mem_delta", 0.5),
    "rr": ("rr_base", "icount_storm_delta", 0.0, "icount_mem_delta", 0.0),
}


class FastMixModel:
    """Per-quantum statistical model of one mix on the SMT machine."""

    def __init__(
        self,
        mix: Union[str, Sequence[str]],
        seed: int = 0,
        quantum_cycles: int = 8192,
        num_threads: int = 8,
    ) -> None:
        if isinstance(mix, str):
            apps = get_mix(mix).subset(num_threads, seed=seed)
        else:
            apps = tuple(mix)
        self.apps = apps
        self.quantum_cycles = quantum_cycles
        self.constants = DEFAULT_CONSTANTS
        seeds = SeedSequencer(seed)
        self.rng = seeds.generator("fastmodel")
        self.threads: List[_ThreadState] = []
        for slot, name in enumerate(apps):
            profile = get_profile(name)
            phases = profile.phases or (_BASE_PHASE,)
            weights = np.array([p.weight for p in phases], dtype=float)
            weights /= weights.sum()
            derived = tuple(
                (_l1_miss_per_load(profile, ph.footprint_scale),
                 _dram_per_load(profile, ph.footprint_scale))
                for ph in phases
            )
            state = _ThreadState(profile, phases, weights, phases[0], 0, derived)
            self._enter_phase(state)
            self.threads.append(state)
        self._noise = 0.0
        self.quantum_index = 0

    # -- phase chain ----------------------------------------------------------
    def _enter_phase(self, state: _ThreadState) -> None:
        idx = int(self.rng.choice(len(state.phases), p=state.weights))
        state.phase = state.phases[idx]
        state.phase_idx = idx
        state.remaining = max(1, int(self.rng.geometric(1.0 / state.phase.mean_length)))

    def _advance_phase(self, state: _ThreadState, committed: int) -> None:
        state.remaining -= committed
        guard = 0
        while state.remaining <= 0:
            carry = state.remaining  # instructions already burned past the boundary
            self._enter_phase(state)
            state.remaining += carry
            guard += 1
            if guard >= 100:  # quanta vastly longer than phases: resample once
                state.remaining = max(1, state.remaining)
                break

    # -- per-quantum equations -------------------------------------------------
    def _thread_demand(self, state: _ThreadState) -> Tuple[float, Dict[str, float]]:
        """Standalone IPC and event rates (per instruction) for one thread."""
        c = self.constants
        p = state.profile
        ph = state.phase
        branch_per_instr = p.branch_frac * p.cond_branch_frac
        mispredict_per_branch = min(0.5, p.mispredict_target * ph.mispredict_scale)
        load_frac = min(0.7, p.load_frac * ph.load_scale)
        l1_miss, dram = state.derived[state.phase_idx]
        cpi = (
            c.base_cpi / max(0.5, ph.dep_scale)
            + branch_per_instr * mispredict_per_branch * c.mispredict_cost
            + load_frac * (l1_miss * c.l2_latency + dram * c.mem_latency) * c.mlp_damp
        )
        rates = {
            "cond_branch_per_instr": branch_per_instr,
            "mispredict_per_instr": branch_per_instr * mispredict_per_branch,
            "l1_miss_per_instr": load_frac * l1_miss,
            "mem_pressure": load_frac * (l1_miss + dram),
        }
        return 1.0 / cpi, rates

    def _policy_efficiency(self, policy: str, storm_share: float, mem_share: float) -> float:
        c = self.constants
        base_key, storm_key, storm_scale, mem_key, mem_scale = _POLICY_TRAITS.get(
            policy, ("rr_base", "icount_storm_delta", 0.0, "icount_mem_delta", 0.0)
        )
        eff = (
            getattr(c, base_key)
            + getattr(c, storm_key) * storm_scale * storm_share
            + getattr(c, mem_key) * mem_scale * mem_share
        )
        return max(0.3, min(1.0, eff))

    def run_quantum(self, policy: str) -> Tuple[float, QuantumObservation]:
        """Advance one quantum under ``policy``; returns (ipc, observation)."""
        c = self.constants
        demands, all_rates = [], []
        storm_share = 0.0
        mem_share = 0.0
        for state in self.threads:
            ipc1, rates = self._thread_demand(state)
            demands.append(ipc1)
            all_rates.append(rates)
            if state.storming:
                storm_share += 1.0 / len(self.threads)
            if state.memory_phase:
                mem_share += 1.0 / len(self.threads)
        demand = float(np.sum(demands))
        eff = self._policy_efficiency(policy, storm_share, mem_share)
        supply = c.fetch_bandwidth * (1.0 - c.smt_overhead) * eff
        ipc = min(demand, supply)
        # AR(1) multiplicative noise (phase-independent quantum jitter).
        self._noise = c.noise_rho * self._noise + self.rng.normal(0.0, c.noise_sigma)
        ipc = max(0.05, ipc * (1.0 + self._noise))

        # Aggregate per-cycle observation rates (what the DT's counters see).
        weights = np.array(demands) / max(1e-9, demand)
        mispredict_rate = ipc * float(
            np.dot(weights, [r["mispredict_per_instr"] for r in all_rates])
        )
        cond_rate = ipc * float(
            np.dot(weights, [r["cond_branch_per_instr"] for r in all_rates])
        )
        l1_rate = ipc * float(np.dot(weights, [r["l1_miss_per_instr"] for r in all_rates]))
        pressure = float(np.dot(weights, [r["mem_pressure"] for r in all_rates]))
        lsq_full_rate = max(0.0, min(8.0, 40.0 * (pressure - 0.10)))

        obs = QuantumObservation(
            index=self.quantum_index,
            cycles=self.quantum_cycles,
            ipc=ipc,
            prev_ipc=0.0,  # caller threads prev_ipc through run loops
            l1_miss_rate=l1_rate,
            lsq_full_rate=lsq_full_rate,
            mispredict_rate=mispredict_rate,
            cond_branch_rate=cond_rate,
        )
        # Evolve the phase chains by this quantum's committed work.
        committed_per_thread = ipc * self.quantum_cycles * weights
        for state, n in zip(self.threads, committed_per_thread):
            self._advance_phase(state, int(n))
        self.quantum_index += 1
        return ipc, obs


@dataclass
class FastRunResult:
    """Outcome of a fast-model run."""

    ipc: float
    quantum_ipcs: List[float] = field(default_factory=list)
    switches: int = 0
    benign_probability: float = 0.0
    policy_usage: Dict[str, int] = field(default_factory=dict)


def fast_run_fixed(
    mix: Union[str, Sequence[str]],
    policy: str = "icount",
    quanta: int = 64,
    seed: int = 0,
    quantum_cycles: int = 8192,
    num_threads: int = 8,
) -> FastRunResult:
    """Fixed-policy fast run."""
    model = FastMixModel(mix, seed=seed, quantum_cycles=quantum_cycles,
                         num_threads=num_threads)
    ipcs = [model.run_quantum(policy)[0] for _ in range(quanta)]
    return FastRunResult(
        ipc=float(np.mean(ipcs)),
        quantum_ipcs=ipcs,
        policy_usage={policy: quanta},
    )


def fast_serve(
    mix: Union[str, Sequence[str]],
    mode: str = "adts",
    policy: str = "icount",
    heuristic: str = "type3",
    threshold: float = 2.0,
    quanta: int = 64,
    seed: int = 0,
    quantum_cycles: int = 8192,
    num_threads: int = 8,
) -> Dict[str, float]:
    """One request-shaped fast-model run, as a grid-cell-shaped payload.

    This is the simulation service's degraded tier: same payload keys as
    the detailed engine's ``service_cell`` task (``ipc`` / ``switches`` /
    ``benign_probability``), so a degraded response is a drop-in for a
    full-fidelity one — only the response's ``tier``/``degraded`` marking
    tells them apart. A named mix is down-sampled to ``num_threads``
    threads, as the detailed engine samples it.
    """
    if mode == "adts":
        r = fast_run_adts(
            mix, heuristic, ThresholdConfig(ipc_threshold=threshold),
            quanta=quanta, seed=seed, quantum_cycles=quantum_cycles,
            num_threads=num_threads,
        )
    else:
        r = fast_run_fixed(
            mix, policy, quanta=quanta, seed=seed,
            quantum_cycles=quantum_cycles, num_threads=num_threads,
        )
    return {
        "ipc": r.ipc,
        "switches": r.switches,
        "benign_probability": r.benign_probability,
    }


def fast_run_adts(
    mix: Union[str, Sequence[str]],
    heuristic: Union[str, Heuristic] = "type3",
    thresholds: Optional[ThresholdConfig] = None,
    quanta: int = 64,
    seed: int = 0,
    quantum_cycles: int = 8192,
    num_threads: int = 8,
) -> FastRunResult:
    """ADTS fast run: the real heuristic drives policy switching on the
    model's observations (instant-DT approximation; the detailed engine
    charges DT latency)."""
    thresholds = thresholds or ThresholdConfig()
    heur = create_heuristic(heuristic, thresholds=thresholds) if isinstance(heuristic, str) else heuristic
    model = FastMixModel(mix, seed=seed, quantum_cycles=quantum_cycles,
                         num_threads=num_threads)
    ledger = SwitchQualityLedger()
    policy = "icount"
    usage: Dict[str, int] = {}
    ipcs: List[float] = []
    prev_ipc = 0.0
    awaiting = False
    ipc_before = 0.0
    for q in range(quanta):
        ipc, obs = model.run_quantum(policy)
        ipcs.append(ipc)
        usage[policy] = usage.get(policy, 0) + 1
        obs = QuantumObservation(
            index=obs.index,
            cycles=obs.cycles,
            ipc=obs.ipc,
            prev_ipc=prev_ipc,
            l1_miss_rate=obs.l1_miss_rate,
            lsq_full_rate=obs.lsq_full_rate,
            mispredict_rate=obs.mispredict_rate,
            cond_branch_rate=obs.cond_branch_rate,
        )
        ledger.record_quantum_ipc(ipc)
        if awaiting:
            heur.record_outcome(ipc > ipc_before)
            awaiting = False
        if obs.low_throughput(thresholds):
            decision = heur.decide(policy, obs)
            if decision.switched:
                ledger.record_switch(ipc)
                awaiting = True
                ipc_before = ipc
                policy = decision.next_policy
        prev_ipc = ipc
    return FastRunResult(
        ipc=float(np.mean(ipcs)),
        quantum_ipcs=ipcs,
        switches=ledger.num_switches,
        benign_probability=ledger.benign_probability,
        policy_usage=usage,
    )

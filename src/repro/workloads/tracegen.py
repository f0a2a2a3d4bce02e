"""Per-thread synthetic instruction-trace generator.

Combines the control-flow and data-address generators with the profile's
instruction mix, dependence model, and Markov phase model to emit
:class:`~repro.smt.instruction.Instruction` streams on demand. The
generator is pull-based: the pipeline's fetch unit asks for the next N
instructions, so wrong-path and stalled threads generate nothing (this also
keeps memory flat — there is no materialized trace file).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.smt.instruction import (
    BRANCH,
    FADD,
    FDIV,
    FMUL,
    IALU,
    IMUL,
    LOAD,
    STORE,
    SYSCALL,
    Instruction,
)
from repro.util.randpool import RandPool
from repro.util.seeds import SeedSequencer
from repro.workloads.addrgen import DataAddressGenerator, _THREAD_REGION
from repro.workloads.branchgen import ControlFlowGenerator
from repro.workloads.profiles import ApplicationProfile, PhaseProfile, get_profile

_BASE_PHASE = PhaseProfile()

# Calibration constants (see DESIGN.md §2 and EXPERIMENTS.md):
# the profile tables describe *relative* application behaviour; these
# globals scale the dependence model so that the 8-thread fixed-ICOUNT
# aggregate IPC lands in the ~1–3 band the paper's Figure 8 sweeps its
# IPC thresholds (1..5) across.
_DEP_MEAN_SCALE = 2.0  # stretch producer distances (synthetic ILP)
_MEM_DEP_SCALE = 0.40  # damp load-consumer density (memory-level parallelism)
_BRANCH_MEM_DEP_SCALE = 0.25  # branches ride induction vars, not loads
_DEP2_PROB = 0.25  # probability of a second source operand dependence


class TraceGenerator:
    """Generates the dynamic instruction stream of one software thread."""

    def __init__(
        self,
        profile: ApplicationProfile,
        tid: int,
        rng: np.random.Generator,
    ) -> None:
        self.profile = profile
        self.tid = tid
        self.pool = RandPool(rng)
        self.addrgen = DataAddressGenerator(profile, tid, rng, self.pool)
        self.cfgen = ControlFlowGenerator(
            profile, tid, rng, self.pool, code_base=tid * _THREAD_REGION
        )
        self.seq = 0
        self._block_remaining = self.cfgen.next_block_length()
        self._last_load_seq = -1
        self._mem_dep = profile.mem_dep_frac * _MEM_DEP_SCALE
        # Phase state.
        self._phases = profile.phases or (_BASE_PHASE,)
        self._weights = np.array([p.weight for p in self._phases], dtype=float)
        self._weights /= self._weights.sum()
        self.phase: PhaseProfile = self._phases[0]
        self._phase_remaining = 0
        self._load_frac = 0.0
        self._dep_mean = 1.0
        self._enter_phase(self._pick_phase())

    # -- phase machinery ----------------------------------------------------
    def _pick_phase(self) -> PhaseProfile:
        if len(self._phases) == 1:
            return self._phases[0]
        u = self.pool.uniform()
        acc = 0.0
        for phase, w in zip(self._phases, self._weights):
            acc += w
            if u < acc:
                return phase
        return self._phases[-1]

    def _enter_phase(self, phase: PhaseProfile) -> None:
        self.phase = phase
        self._phase_remaining = self.pool.geometric(float(phase.mean_length))
        self.addrgen.set_phase_scale(phase.footprint_scale)
        self.cfgen.set_phase_scale(phase.mispredict_scale)
        # Rates that depend only on (profile, phase): computed once per
        # phase entry instead of once per instruction in the hot loop.
        p = self.profile
        self._load_frac = min(0.7, p.load_frac * phase.load_scale)
        self._dep_mean = max(1.0, p.dep_mean * phase.dep_scale * _DEP_MEAN_SCALE)

    # -- instruction synthesis ----------------------------------------------
    def _deps(self, seq: int, kind: int, branch_noise: float = 0.0) -> tuple:
        """Draw producer seqs (always < ``seq``) for the new instruction.

        ``branch_noise`` (branches only) is the site's minority-outcome
        probability: noisy branches are noisy *because* they test loaded
        data, so their load-dependence scales with it — predictable loop
        branches ride induction variables instead. This correlation is what
        makes misprediction storms expensive (long wrong-path windows while
        the branch waits on memory), the §1 phenomenon BRCOUNT addresses.
        """
        pool = self.pool
        uniform = pool.uniform
        dep_mean = self._dep_mean
        if kind == BRANCH:
            data_dependence = min(1.0, _BRANCH_MEM_DEP_SCALE + 8.0 * branch_noise)
            mem_dep = self.profile.mem_dep_frac * data_dependence
        else:
            mem_dep = self._mem_dep
        last_load = self._last_load_seq
        if 0 <= last_load < seq and uniform() < mem_dep:
            dep1 = last_load
        else:
            dep1 = seq - pool.geometric(dep_mean)
        dep2 = -1
        if kind != LOAD and kind != SYSCALL and uniform() < _DEP2_PROB:
            dep2 = seq - pool.geometric(dep_mean)
        return (dep1 if dep1 >= 0 else -1, dep2 if dep2 >= 0 else -1)

    def _pick_kind(self) -> int:
        p = self.profile
        uniform = self.pool.uniform
        u = uniform()
        load_frac = self._load_frac
        if u < load_frac:
            return LOAD
        u -= load_frac
        if u < p.store_frac:
            return STORE
        u -= p.store_frac
        if p.syscall_rate and u < p.syscall_rate:
            return SYSCALL
        # Compute op: split int/fp.
        if uniform() < p.fp_frac:
            v = uniform()
            if v < p.fdiv_frac:
                return FDIV
            if v < p.fdiv_frac + p.fmul_frac:
                return FMUL
            return FADD
        return IMUL if uniform() < p.imul_frac else IALU

    def next_instruction(self) -> Instruction:
        """Emit the next instruction in program order."""
        if self._phase_remaining <= 0:
            self._enter_phase(self._pick_phase())
        self._phase_remaining -= 1

        seq = self.seq
        self.seq += 1
        if self._block_remaining <= 1:
            # Block-ending branch.
            self._block_remaining = self.cfgen.next_block_length()
            pc, is_cond, taken, target, noise = self.cfgen.branch()
            dep1, dep2 = self._deps(seq, BRANCH, branch_noise=noise)
            return Instruction(
                self.tid, seq, BRANCH, pc, dep1, dep2,
                cond=is_cond, taken=taken, target=target,
            )
        self._block_remaining -= 1
        kind = self._pick_kind()
        pc = self.cfgen.advance()
        dep1, dep2 = self._deps(seq, kind)
        addr = self.addrgen.next_address() if kind == LOAD or kind == STORE else 0
        instr = Instruction(self.tid, seq, kind, pc, dep1, dep2, addr=addr)
        if kind == LOAD:
            self._last_load_seq = seq
        return instr


def _build_generator(profile: ApplicationProfile, slot: int, name: str,
                     seed: int) -> TraceGenerator:
    """The seeded generator of one (mix slot, app) pair.

    Each slot gets an independent seed substream keyed by (slot, name), so
    two copies of the same program in one mix diverge (as two processes
    with different inputs would) while the whole mix stays reproducible.
    :func:`make_generators` and the batch engine's shared streams both
    build their generators here, so a thread's instruction stream is the
    same whichever path simulates it.
    """
    return TraceGenerator(profile, slot, SeedSequencer(seed).generator("trace", slot, name))


def make_generators(app_names: Sequence[str], seed: int = 0) -> List[TraceGenerator]:
    """Build one generator per thread for the named applications."""
    return [
        _build_generator(get_profile(name), slot, name, seed)
        for slot, name in enumerate(app_names)
    ]

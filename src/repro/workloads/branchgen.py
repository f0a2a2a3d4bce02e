"""Control-flow generator.

Models a program's control flow as a set of branch *sites* scattered across
a code footprint. Each site has a persistent minority-outcome probability
drawn when the site is first visited, so a 2-bit bimodal predictor sees a
realistic per-site accuracy distribution: an exponential mix of strongly
biased sites (predictable) and a tail of noisy sites. The mean minority
probability equals the profile's ``mispredict_target``, which is (to first
order) the misprediction rate a saturating-counter predictor achieves.

PC layout: instructions are word-sized; basic blocks are geometric in
length; a taken branch jumps to a (loop-biased) block within the code
footprint, which generates the L1I behaviour for large-code programs like
gcc and perlbmk.
"""

from __future__ import annotations

from math import log as _log
from typing import Dict, Tuple

import numpy as np

from repro.util.randpool import RandPool
from repro.workloads.profiles import ApplicationProfile

_CODE_REGION = 16 * 1024 * 1024  # per-thread code space offset within its region
_WORD = 4


class ControlFlowGenerator:
    """Stateful per-thread PC/branch-outcome stream."""

    def __init__(
        self,
        profile: ApplicationProfile,
        tid: int,
        rng: np.random.Generator,
        pool: RandPool | None = None,
        code_base: int = 0,
    ) -> None:
        self.profile = profile
        self.tid = tid
        self.pool = pool or RandPool(rng)
        # Stagger per-thread code layouts: power-of-two-spaced address
        # spaces would alias every thread's hot code to the same L1I sets
        # (set-conflict livelock); real processes have unrelated layouts.
        # The stagger is an ODD number of cache lines so it is coprime with
        # every power-of-two set count.
        self.code_base = code_base + _CODE_REGION + tid * (37 * 4096 + 64)
        self.code_bytes = profile.code_kb * 1024
        self.pc = self.code_base
        self.mispredict_scale = 1.0  # phase override hook
        # site pc -> (minority_probability, majority_taken)
        self._sites: Dict[int, Tuple[float, bool]] = {}
        # block start pc -> block length. Block structure is a property of
        # the *code*, not of the visit: revisiting a block must replay the
        # same branch PCs or no branch site ever repeats and predictors
        # cannot train.
        self._block_lengths: Dict[int, int] = {}
        # branch site pc -> taken-target (static CFG edge); a small
        # ``indirect_frac`` of visits re-draw the target, modeling indirect
        # branches and returns.
        self._site_targets: Dict[int, int] = {}
        self.indirect_frac = 0.02
        # Loop model: remember a few recent targets and revisit them.
        self._recent_targets = [self.code_base]
        self.branches_emitted = 0

    # ------------------------------------------------------------------
    def _site_params(self, pc: int) -> Tuple[float, bool, bool]:
        """Per-site static properties: (minority prob, majority direction,
        is-conditional). Drawn once per site and cached — branch *sites*
        have stable behaviour; only dynamic outcomes vary."""
        site = self._sites.get(pc)
        if site is None:
            # Exponential distribution of per-site noise, clipped to [0, .5];
            # mean equals the profile's target misprediction rate.
            noise = min(0.5, -self.profile.mispredict_target * _log(max(1e-12, 1.0 - self.pool.uniform())))
            majority_taken = self.pool.bernoulli(0.6)  # branches skew taken
            is_cond = self.pool.bernoulli(self.profile.cond_branch_frac)
            site = (noise, majority_taken, is_cond)
            self._sites[pc] = site
        return site

    def next_block_length(self) -> int:
        """Length of the basic block starting at the current PC.

        Deterministic per block-start address (drawn once, cached), so the
        block-ending branch sits at a stable site PC across revisits.
        """
        start = self.pc
        length = self._block_lengths.get(start)
        if length is None:
            length = max(2, self.pool.geometric(self.profile.avg_block))
            self._block_lengths[start] = length
        return length

    def advance(self) -> int:
        """PC of the next sequential instruction."""
        pc = self.pc
        self.pc += _WORD
        return pc

    def branch(self) -> Tuple[int, bool, bool, int, float]:
        """Emit the block-ending branch at the current PC.

        Returns ``(pc, is_conditional, taken, target, noise)`` and moves the
        PC to the successor (target if taken, fall-through otherwise).
        ``noise`` is the site's minority-outcome probability — callers use
        it to correlate hard-to-predict branches with data dependence.
        """
        pc = self.advance()
        self.branches_emitted += 1
        noise, majority_taken, is_cond = self._site_params(pc)
        if is_cond:
            effective_noise = min(0.5, noise * self.mispredict_scale)
            minority = self.pool.bernoulli(effective_noise)
            taken = majority_taken != minority
        else:
            taken = True  # unconditional jumps/calls
            effective_noise = 0.0
        if taken:
            target = self._site_targets.get(pc)
            if target is None or self.pool.bernoulli(self.indirect_frac):
                target = self._pick_target(pc)
                self._site_targets[pc] = target
            self.pc = target
        else:
            target = self.pc
        return pc, is_cond, taken, target, effective_noise

    def _pick_target(self, pc: int) -> int:
        """Loop-biased target selection within the code footprint."""
        if self._recent_targets and self.pool.bernoulli(0.85):
            # Revisit a recent target: loops and hot call sites.
            return self._recent_targets[self.pool.integer(len(self._recent_targets))]
        offset = (self.pool.integer(max(1, self.code_bytes // _WORD))) * _WORD
        target = self.code_base + offset
        self._recent_targets.append(target)
        if len(self._recent_targets) > 16:
            self._recent_targets.pop(0)
        return target

    def set_phase_scale(self, mispredict_scale: float) -> None:
        """Apply a phase's misprediction multiplier."""
        self.mispredict_scale = max(0.0, mispredict_scale)

    @property
    def known_sites(self) -> int:
        return len(self._sites)

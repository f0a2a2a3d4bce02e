"""Self-tuning detection thresholds (paper §4.3.2's proposed extension).

"There can be no single golden reference measures that can always be used.
To be more effective, the threshold values should be updated to reflect
newly found information. ... The system's detector thread management kernel
can profile the system and determine whether current threshold numbers are
obsolete and if so, it may update the values" — the paper leaves the
policy open; this module implements two natural ones:

* :class:`QuantileTracker` — streaming estimate of a metric's quantile
  (P² -style stochastic approximation, O(1) state: fits a DT register);
* :class:`ThresholdAutoTuner` — re-derives the ``ThresholdConfig`` every
  ``update_interval`` quanta: the IPC threshold tracks a low quantile of
  recent quantum IPC (so "low throughput" always means "unusually low for
  the current workload"), and the condition constants track the recent
  means of their metrics (the paper's own calibration rule, applied
  online).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.quantum import QuantumObservation
from repro.core.thresholds import ThresholdConfig


#: The quantile tracker's step, relative to the running magnitude.
STEP = 0.05
#: The smoothing factor of the tuner's condition-constant means.
ALPHA = 0.15


class QuantileTracker:
    """Streaming quantile via stochastic approximation.

    Classic Robbins–Monro update: the estimate moves up by ``STEP*q`` on
    samples above it and down by ``STEP*(1-q)`` on samples below, so it
    converges to the q-quantile with one register of state — implementable
    in a few DT instructions.
    """

    def __init__(self, q: float, initial: float = 0.0) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self.estimate = initial
        self.samples = 0

    def update(self, value: float) -> float:
        """Ingest one sample; returns the updated quantile estimate."""
        # Scale the step to the running magnitude so the tracker is
        # unit-free across metrics.
        scale = max(abs(self.estimate), abs(value), 1e-6)
        if value > self.estimate:
            self.estimate += STEP * self.q * scale
        else:
            self.estimate -= STEP * (1.0 - self.q) * scale
        self.samples += 1
        return self.estimate


class RunningMean:
    """Exponentially-weighted running mean (one DT register)."""

    def __init__(self, alpha: float = 0.1, initial: float = 0.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value = initial
        self.samples = 0

    def update(self, sample: float) -> float:
        """Ingest one sample; returns the updated mean."""
        if self.samples == 0:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        self.samples += 1
        return self.value


@dataclass
class TunerEvent:
    """One threshold update, for analysis."""

    quantum_index: int
    thresholds: ThresholdConfig


class ThresholdAutoTuner:
    """Online re-calibration of the DT's thresholds.

    Feed it every quantum observation; read ``thresholds`` before deciding.
    The IPC threshold tracks the ``ipc_quantile`` of recent quantum IPC;
    the four condition constants track their metrics' running means (the
    paper's §4.3.2 rule, applied continuously instead of once offline).
    """

    def __init__(
        self,
        initial: Optional[ThresholdConfig] = None,
        ipc_quantile: float = 0.35,
        update_interval: int = 8,
    ) -> None:
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        self.thresholds = initial or ThresholdConfig()
        self.update_interval = update_interval
        self._ipc = QuantileTracker(
            ipc_quantile, initial=self.thresholds.ipc_threshold
        )
        self._means: Dict[str, RunningMean] = {
            "l1_miss_rate": RunningMean(ALPHA, self.thresholds.l1_miss_rate),
            "lsq_full_rate": RunningMean(ALPHA, self.thresholds.lsq_full_rate),
            "mispredict_rate": RunningMean(ALPHA, self.thresholds.mispredict_rate),
            "cond_branch_rate": RunningMean(ALPHA, self.thresholds.cond_branch_rate),
        }
        self._since_update = 0
        self.events: List[TunerEvent] = []

    def observe(self, obs: QuantumObservation) -> ThresholdConfig:
        """Ingest one quantum; returns the (possibly updated) thresholds."""
        self._ipc.update(obs.ipc)
        self._means["l1_miss_rate"].update(obs.l1_miss_rate)
        self._means["lsq_full_rate"].update(obs.lsq_full_rate)
        self._means["mispredict_rate"].update(obs.mispredict_rate)
        self._means["cond_branch_rate"].update(obs.cond_branch_rate)
        self._since_update += 1
        if self._since_update >= self.update_interval:
            self._since_update = 0
            self.thresholds = replace(
                self.thresholds,
                ipc_threshold=max(0.05, self._ipc.estimate),
                l1_miss_rate=max(0.0, self._means["l1_miss_rate"].value),
                lsq_full_rate=max(0.0, self._means["lsq_full_rate"].value),
                mispredict_rate=max(0.0, self._means["mispredict_rate"].value),
                cond_branch_rate=max(0.0, self._means["cond_branch_rate"].value),
            )
            self.events.append(TunerEvent(obs.index, self.thresholds))
        return self.thresholds

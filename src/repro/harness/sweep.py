"""The Figure 7/8 parameter grid: IPC threshold × heuristic type.

One grid run produces everything both figures plot — per-cell mean IPC
(Fig 8), switch counts (Fig 7 a/b) and benign-switch probability
(Fig 7 c/d) — so the benchmarks share a single sweep.

A grid is many schedulers run over one workload, so its cells run one
way only: in per-mix lockstep batches through
:func:`~repro.harness.runner.run_batch`, inline or as supervised
``grid_batch`` items. Each cell is a
:class:`~repro.harness.runner.BatchRunSpec`, journaled under its
:func:`~repro.harness.runner.run_key` — the
:func:`~repro.service.identity.request_identity` of the service request
asking for the same run — with the payload a
service answer carries (:meth:`~repro.harness.runner.RunResult.payload`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultPlan
from repro.harness.errors import ConfigError
from repro.harness.journal import RunJournal
from repro.harness.runner import BatchRunSpec, ProgressFn, RunConfig, run_batch, run_key

Cell = Tuple[float, str]  # (ipc_threshold, heuristic)
#: One grid cell still to simulate: (journal key, run spec).
PendingCell = Tuple[str, BatchRunSpec]


@dataclass
class SweepResult:
    """Results of a threshold × type grid over a set of mixes."""

    thresholds: List[float]
    heuristics: List[str]
    mixes: List[str]
    #: (threshold, heuristic) -> mean aggregate IPC over mixes
    ipc: Dict[Cell, float] = field(default_factory=dict)
    #: (threshold, heuristic) -> total switches over mixes
    switches: Dict[Cell, int] = field(default_factory=dict)
    #: (threshold, heuristic) -> P(benign switch), switch-weighted
    benign: Dict[Cell, float] = field(default_factory=dict)
    #: (threshold, heuristic, mix) -> per-mix IPC
    per_mix_ipc: Dict[Tuple[float, str, str], float] = field(default_factory=dict)

    def series_ipc_vs_threshold(self, heuristic: str) -> List[float]:
        """Fig 8(a)/(c): IPC as a function of the threshold, one type."""
        return [self.ipc[(m, heuristic)] for m in self.thresholds]

    def series_ipc_vs_type(self, threshold: float) -> List[float]:
        """Fig 8(b)/(d): IPC as a function of the type, one threshold."""
        return [self.ipc[(threshold, h)] for h in self.heuristics]

    def series_switches_vs_threshold(self, heuristic: str) -> List[int]:
        """Fig 7(a)."""
        return [self.switches[(m, heuristic)] for m in self.thresholds]

    def series_switches_vs_type(self, threshold: float) -> List[int]:
        """Fig 7(b)."""
        return [self.switches[(threshold, h)] for h in self.heuristics]

    def series_benign_vs_threshold(self, heuristic: str) -> List[float]:
        """Fig 7(c)."""
        return [self.benign[(m, heuristic)] for m in self.thresholds]

    def series_benign_vs_type(self, threshold: float) -> List[float]:
        """Fig 7(d)."""
        return [self.benign[(threshold, h)] for h in self.heuristics]

    def best_cell(self) -> Cell:
        """The (threshold, type) with the highest mean IPC — the paper's
        'threshold 2, Type 3' claim.

        Ties are broken deterministically — lowest threshold first, then
        lexicographic heuristic name — so the reported best cell never
        depends on dict insertion order (which would differ between a fresh
        sweep and one reassembled from a journal or a parallel executor).
        """
        return min(self.ipc, key=lambda cell: (-self.ipc[cell], cell[0], cell[1]))


def run_cells(
    cells: Sequence[PendingCell],
    progress: Optional[ProgressFn] = None,
) -> Dict[str, Dict]:
    """Simulate ``cells`` in one lockstep :func:`run_batch` pass and map
    each cell's journal key to its :meth:`~repro.harness.runner.RunResult.
    payload`, the payload a grid journals and aggregates (and a service
    answer carries).

    This is the only place a grid cell is simulated: inline batches call it
    directly and supervised ``grid_batch`` workers call it in the child.
    """
    results = run_batch([spec for _key, spec in cells], progress=progress)
    return {key: r.payload() for (key, _spec), r in zip(cells, results)}


def _supervised_waves(
    chunks: List[List[PendingCell]],
    executor: "SupervisedExecutor",
) -> Iterator[Dict[str, Dict]]:
    """Run each chunk as one ``grid_batch`` item, ``workers`` items per
    :meth:`~repro.harness.executor.SupervisedExecutor.run` call, yielding
    each wave's per-cell payloads as soon as the wave finishes (so the
    caller journals it before the next wave starts)."""
    from repro.harness.executor import WorkItem

    items = [
        WorkItem(label=f"grid-batch[{i}]", kind="grid_batch", spec={"cells": chunk})
        for i, chunk in enumerate(chunks)
    ]
    wave = executor.config.workers
    for start in range(0, len(items), wave):
        outs = executor.run(items[start:start + wave])
        for item in items[start:start + wave]:
            yield outs[item.result_key]["cells"]


def threshold_type_grid(
    base: RunConfig,
    mixes: Sequence[str],
    thresholds: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
    heuristics: Sequence[str] = ("type1", "type2", "type3", "type3g", "type4"),
    journal: Optional[RunJournal] = None,
    executor: Optional["SupervisedExecutor"] = None,
    fault_plan: Optional[FaultPlan] = None,
    batch: Optional[int] = None,
) -> SweepResult:
    """Run the full grid. Cost = len(thresholds) x len(heuristics) x
    len(mixes) cells of ``base.total_quanta()`` quanta each.

    Every cell runs through the lockstep
    :class:`~repro.smt.batch.BatchEngine` (via :func:`run_cells`), which
    is bit-identical to a lone ``run_adts`` call per cell. Cells are
    ordered mix-major — all cells of one mix together, thresholds then
    heuristics inside it — because cells share trace streams and machines
    only when they have the same mix and seed. ``batch=None`` runs one
    batch per mix, which keeps all of that sharing; ``batch=N`` chunks the
    same order N cells at a time. Either way a batch holds one live
    machine at a time (the engine runs depth-first). A ``batch`` below 1
    raises :class:`ConfigError`.

    With a ``journal``, every finished cell is durably appended and any
    already-journaled cell is served from it instead of re-running — a
    killed sweep resumes from its last finished batch (load the journal
    before calling). Journal keys are per cell (each cell's
    :func:`~repro.harness.runner.run_key`), so a sweep journaled at one
    batch size resumes at any other.

    With an ``executor``
    (:class:`~repro.harness.executor.SupervisedExecutor`), each batch is
    one supervised ``grid_batch`` item: batches run concurrently in child
    processes under the executor's SIGKILL-enforced limits and restart
    budget, in waves of ``workers`` batches so each wave is journaled
    before the next starts. Results are reassembled here in canonical
    grid order, so the aggregate is identical for any worker count and
    batch size.

    ``fault_plan`` applies to every cell. Disk-only plans exercise the
    storage layer without changing any cell payload, so the aggregate
    stays identical to a fault-free sweep.
    """
    if batch is not None and batch < 1:
        raise ConfigError("batch", batch, ">= 1 (None = one batch per mix)")
    result = SweepResult(
        thresholds=list(thresholds), heuristics=list(heuristics), mixes=list(mixes)
    )
    payloads: Dict[str, Dict] = {}
    keys: Dict[Tuple[float, str, str], str] = {}
    pending: List[PendingCell] = []
    for mix in mixes:
        for m in thresholds:
            for h in heuristics:
                spec = BatchRunSpec(
                    config=replace(base, mix=mix),
                    heuristic=h,
                    thresholds=ThresholdConfig(ipc_threshold=m),
                    fault_plan=fault_plan,
                )
                key = keys[(m, h, mix)] = run_key(spec)
                served = journal.get(key) if journal is not None else None
                if served is not None:
                    payloads[key] = served
                else:
                    pending.append((key, spec))
    if batch is None:
        chunks = [list(cells) for _mix, cells in
                  groupby(pending, key=lambda c: c[1].config.mix)]
    else:
        chunks = [pending[i:i + batch] for i in range(0, len(pending), batch)]
    if executor is not None:
        finished = _supervised_waves(chunks, executor)
    else:
        finished = (run_cells(chunk) for chunk in chunks)
    for chunk_payloads in finished:
        for key, payload in chunk_payloads.items():
            payloads[key] = payload
            if journal is not None:
                journal.record(key, payload)
    for m in thresholds:
        for h in heuristics:
            ipcs: List[float] = []
            total_switches = 0
            benign_weighted = 0.0
            for mix in mixes:
                payload = payloads[keys[(m, h, mix)]]
                ipcs.append(payload["ipc"])
                result.per_mix_ipc[(m, h, mix)] = payload["ipc"]
                n = payload["switches"]
                total_switches += n
                benign_weighted += payload["benign_probability"] * n
            result.ipc[(m, h)] = sum(ipcs) / len(ipcs)
            result.switches[(m, h)] = total_switches
            result.benign[(m, h)] = (
                benign_weighted / total_switches if total_switches else 0.0
            )
    return result

"""Single-run drivers: one (mix, scheduler) combination → one result.

Beyond the plain drivers, runs can opt into three robustness features:

* ``progress`` — a callback fired at every quantum boundary with the index
  of the quantum that just finished; the supervised executor uses it as the
  worker heartbeat (a run that stops calling it is hung, not slow);
* ``checkpoint`` — a :class:`~repro.smt.checkpoint.CheckpointPlan`: the run
  snapshots its complete simulator state every N quanta, and a later call
  with the same plan *resumes* from the snapshot, bit-identical to an
  uninterrupted run (crash recovery at sub-cell granularity);
* ``invariants`` — installs an :class:`~repro.smt.invariants.InvariantChecker`
  outside the hook chain (``"raise"``, ``"watchdog"`` or ``"record"`` mode).

All three are exact-result-preserving: a run with any combination of them
enabled produces the same :class:`RunResult` as a bare run, because quanta
are stepped on exactly the same cycle boundaries either way.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import build_processor
from repro.core.adts import ADTSController, WatchdogConfig
from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultInjector, FaultPlan
from repro.harness.errors import ConfigError, StorageError
from repro.policies.registry import POLICY_NAMES
from repro.smt.checkpoint import (
    CheckpointError,
    CheckpointPlan,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.smt.config import SMTConfig
from repro.smt.invariants import InvariantChecker
from repro.storage.faultfs import faultfs_session
from repro.workloads import get_mix, mix_names
from repro.workloads.tracecache import flush_trace_cache

ProgressFn = Callable[[int], None]

log = logging.getLogger("repro.runner")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation run.

    ``warmup_quanta`` are simulated but excluded from the reported IPC —
    the stand-in for the paper's fast-forwarding into steady state.

    Fields are validated at construction; a bad value raises
    :class:`~repro.harness.errors.ConfigError` naming the field, instead of
    surfacing as an opaque failure deep inside ``build_processor``.
    """

    mix: Union[str, Sequence[str]] = "mix01"
    num_threads: int = 8
    seed: int = 0
    quantum_cycles: int = 2048
    quanta: int = 32
    warmup_quanta: int = 4
    policy: str = "icount"
    machine: Optional[SMTConfig] = None

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigError("num_threads", self.num_threads, ">= 1")
        if isinstance(self.mix, str):
            try:
                width = len(get_mix(self.mix).apps)
            except KeyError:
                raise ConfigError("mix", self.mix, f"one of {mix_names()}") from None
            if self.num_threads > width:
                raise ConfigError(
                    "num_threads", self.num_threads, f"<= {width} for a named mix"
                )
        if self.seed < 0:
            raise ConfigError("seed", self.seed, ">= 0")
        if self.quanta < 1:
            raise ConfigError("quanta", self.quanta, ">= 1")
        if self.warmup_quanta < 0:
            raise ConfigError("warmup_quanta", self.warmup_quanta, ">= 0")
        if self.quantum_cycles <= 0:
            raise ConfigError("quantum_cycles", self.quantum_cycles, "> 0")
        if self.policy not in POLICY_NAMES:
            raise ConfigError("policy", self.policy, f"one of {POLICY_NAMES}")

    def total_quanta(self) -> int:
        """Warmup plus measured quanta."""
        return self.quanta + self.warmup_quanta


@dataclass
class RunResult:
    """Outcome of one run (post-warmup window)."""

    config: RunConfig
    ipc: float
    committed: int
    cycles: int
    quantum_ipcs: List[float] = field(default_factory=list)
    scheduler: Dict = field(default_factory=dict)

    @property
    def mean_quantum_ipc(self) -> float:
        return sum(self.quantum_ipcs) / len(self.quantum_ipcs) if self.quantum_ipcs else 0.0


def _run_key(cfg: RunConfig, mode: str, scheduler: str, ipc_threshold: Optional[float]) -> str:
    """Canonical identity of one run — the guard against resuming a cell
    from some other run's checkpoint."""
    from repro.harness.journal import RunJournal

    return RunJournal.cell_key(
        kind="run",
        mode=mode,
        scheduler=scheduler,
        ipc_threshold=ipc_threshold,
        mix=cfg.mix,
        seed=cfg.seed,
        num_threads=cfg.num_threads,
        quantum_cycles=cfg.quantum_cycles,
        quanta=cfg.quanta,
        warmup_quanta=cfg.warmup_quanta,
    )


def _measure(
    proc,
    cfg: RunConfig,
    scheduler_summary: Dict,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[CheckpointPlan] = None,
    controller=None,
    injector=None,
    run_key: Optional[str] = None,
) -> RunResult:
    """Advance ``proc`` to ``cfg.total_quanta()`` quanta and window the stats.

    The result is derived purely from the per-quantum history, so it is
    identical whether the run went straight through, was stepped quantum by
    quantum for heartbeats/checkpoints, or was restored mid-way from a
    snapshot (``proc`` may arrive here with quanta already on the clock).
    """
    total = cfg.total_quanta()
    if progress is None and checkpoint is None:
        proc.run_quanta(total - proc.quantum_index)
    else:
        while proc.quantum_index < total:
            proc.run_quanta(1)
            done = proc.quantum_index
            if progress is not None:
                progress(done)
            if checkpoint is not None and done < total and checkpoint.due(done):
                try:
                    save_checkpoint(
                        checkpoint.path, proc, controller, injector,
                        meta={"run_key": run_key, "fingerprint": proc.fingerprint()},
                    )
                except StorageError as exc:
                    # A checkpoint is an optimization: losing one costs a
                    # longer retry, aborting would cost the run. A seeded
                    # disk fault would also recur identically on every
                    # supervised retry, so the run must outlive it.
                    log.warning(
                        "checkpoint write failed at quantum %d (%s); "
                        "continuing without a snapshot", done, exc,
                    )
        if checkpoint is not None and not checkpoint.keep_on_success:
            discard_checkpoint(checkpoint.path)
    window = proc.stats.quantum_history[cfg.warmup_quanta : total]
    committed = sum(q.committed for q in window)
    cycles = sum(q.cycles for q in window)
    return RunResult(
        config=cfg,
        ipc=committed / cycles if cycles else 0.0,
        committed=committed,
        cycles=cycles,
        quantum_ipcs=[q.ipc for q in window],
        scheduler=scheduler_summary,
    )


def _maybe_inject(hook, fault_plan: Optional[FaultPlan]):
    """Wrap ``hook`` in a FaultInjector when a plan with live faults is given.

    Returns ``(hook_to_install, injector_or_None)``.
    """
    if fault_plan is None or not fault_plan.any_scheduler_enabled:
        # Disk-only plans don't touch the hook chain: they are injected at
        # the storage layer by _maybe_faultfs and never perturb results.
        return hook, None
    injector = FaultInjector(fault_plan, hook)
    return injector, injector


@contextmanager
def _maybe_faultfs(fault_plan: Optional[FaultPlan]):
    """Scope the plan's disk-fault family around a run's storage I/O.

    No-op (an active outer injector stays active) when the plan carries no
    disk faults; otherwise a fresh seeded
    :class:`~repro.storage.faultfs.FaultFS` is installed for the run so
    every checkpoint/journal/trace-cache write and read inside it goes
    through the injector.
    """
    disk = fault_plan.disk_plan() if fault_plan is not None else None
    if disk is None:
        yield None
        return
    with faultfs_session(disk) as ffs:
        yield ffs


def _maybe_check(hook, invariants: Optional[str]):
    """Wrap ``hook`` in an InvariantChecker when a mode is requested.

    The checker goes *outside* any injector so it always judges the true
    machine state, never injected telemetry (that is the watchdog's job).
    Returns ``(hook_to_install, checker_or_None)``.
    """
    if invariants is None:
        return hook, None
    checker = InvariantChecker(hook, mode=invariants)
    return checker, checker


def _try_resume(checkpoint: Optional[CheckpointPlan], run_key: str):
    """Load the plan's snapshot if one exists; None means start fresh.

    A snapshot that fails validation is not fatal: ``load_checkpoint`` has
    already quarantined the damaged file, and starting from cycle zero is
    always correct (just slower) — raising here would burn a supervised
    retry on every attempt against the same bad bytes.
    """
    if checkpoint is None or not Path(checkpoint.path).exists():
        return None
    try:
        return load_checkpoint(checkpoint.path, expect_meta={"run_key": run_key})
    except CheckpointError as exc:
        log.warning("ignoring unusable checkpoint (%s); starting fresh", exc)
        return None


def _run(
    cfg: RunConfig,
    scheduler: str,
    ipc_threshold: Optional[float],
    new_controller: Optional[Callable[[], ADTSController]],
    fault_plan: Optional[FaultPlan],
    progress: Optional[ProgressFn],
    checkpoint: Optional[CheckpointPlan],
    invariants: Optional[str],
) -> RunResult:
    """The body of ``run_fixed`` and ``run_adts``: build (or resume) the
    machine, measure it and summarize the hook chain. ``new_controller``
    builds the ADTS controller; None runs ``cfg.policy`` unattended."""
    mode = "fixed" if new_controller is None else "adts"
    with _maybe_faultfs(fault_plan) as ffs:
        run_key = _run_key(cfg, mode, scheduler, ipc_threshold)
        snap = _try_resume(checkpoint, run_key)
        if snap is not None:
            proc, controller, injector = snap.processor, snap.controller, snap.injector
            if injector is not None and fault_plan is not None:
                # An explicit plan overrides the snapshotted one. Zero-rate
                # families draw nothing from the RNG, so a supervised retry
                # can strip process-killing faults without desyncing the
                # stream.
                injector.plan = fault_plan
        else:
            controller = new_controller() if new_controller is not None else None
            hook, injector = _maybe_inject(controller, fault_plan)
            hook, _ = _maybe_check(hook, invariants)
            proc = build_processor(
                mix=cfg.mix,
                num_threads=cfg.num_threads,
                seed=cfg.seed,
                config=cfg.machine,
                # ADTS starts on its initial/default policy (§4.3.3).
                policy="icount" if mode == "adts" else cfg.policy,
                hook=hook,
                quantum_cycles=cfg.quantum_cycles,
            )
        checker = proc.hook if isinstance(proc.hook, InvariantChecker) else None
        label = "heuristic" if mode == "adts" else "policy"
        result = _measure(
            proc, cfg, {"mode": mode, label: scheduler},
            progress=progress, checkpoint=checkpoint,
            controller=controller, injector=injector, run_key=run_key,
        )
        if controller is not None:
            result.scheduler.update(controller.summary())
            controller.detach()  # the result is measured: free the machine by refcount
        if injector is not None:
            result.scheduler.update(injector.summary())
        if checker is not None:
            result.scheduler.update(checker.summary())
        flush_trace_cache()
        if ffs is not None:
            result.scheduler.update(ffs.summary())
        return result


def run_fixed(
    cfg: RunConfig,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[CheckpointPlan] = None,
    invariants: Optional[str] = None,
) -> RunResult:
    """Run under the fixed fetch policy named in ``cfg.policy``."""
    return _run(cfg, cfg.policy, None, None,
                fault_plan, progress, checkpoint, invariants)


def run_adts(
    cfg: RunConfig,
    heuristic: str = "type3",
    thresholds: Optional[ThresholdConfig] = None,
    instant_dt: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[CheckpointPlan] = None,
    invariants: Optional[str] = None,
) -> RunResult:
    """Run under ADTS with the given heuristic and thresholds.

    ``fault_plan`` (optional) interposes a seeded
    :class:`~repro.faults.FaultInjector` between the pipeline and the
    controller; ``watchdog`` overrides the controller's fallback knobs.
    With a ``checkpoint`` plan whose snapshot file exists, the run resumes
    from it and the heuristic / threshold / fault arguments are taken from
    the restored state; a snapshot that is damaged or carries a different
    run identity is quarantined/ignored and the run starts fresh (always
    correct, merely slower).
    """
    th = thresholds or ThresholdConfig()

    def new_controller() -> ADTSController:
        return ADTSController(
            heuristic=heuristic, thresholds=th, instant_dt=instant_dt,
            watchdog=watchdog,
        )

    return _run(cfg, heuristic, th.ipc_threshold, new_controller,
                fault_plan, progress, checkpoint, invariants)


@dataclass(frozen=True)
class BatchRunSpec:
    """One cell of a batched run: a :class:`RunConfig` plus the scheduler
    selection ``run_adts``/``run_fixed`` would take as arguments."""

    config: RunConfig
    mode: str = "adts"
    heuristic: str = "type3"
    thresholds: Optional[ThresholdConfig] = None
    fault_plan: Optional[FaultPlan] = None


def run_batch(
    specs: Sequence[BatchRunSpec],
    progress: Optional[ProgressFn] = None,
) -> List[RunResult]:
    """Run many cells through one lockstep :class:`~repro.smt.batch.BatchEngine`
    pass, sharing trace streams and (where trajectories coincide) whole
    machine steps across cells.

    Each result is bit-identical to the corresponding sequential
    ``run_adts``/``run_fixed`` call: the engine forks shared machines the
    moment cells diverge, so sharing is a pure performance transform.
    Cells whose plan carries scheduler faults run solo (their own injector,
    no cross-cell bleed) but still share trace streams. Disk-fault
    families are scoped once around the whole pass — they never change
    payloads, so the wider scope is observationally identical to the
    sequential per-run session.

    ``progress`` is called after every lockstep round (the batch analogue
    of the per-quantum heartbeat).
    """
    from repro.smt.batch import BatchCell, BatchEngine

    cells = []
    for spec in specs:
        cfg = spec.config
        cells.append(
            BatchCell(
                mix=cfg.mix,
                num_threads=cfg.num_threads,
                seed=cfg.seed,
                quantum_cycles=cfg.quantum_cycles,
                quanta=cfg.quanta,
                warmup_quanta=cfg.warmup_quanta,
                mode=spec.mode,
                policy=cfg.policy,
                heuristic=spec.heuristic,
                thresholds=spec.thresholds,
                machine=cfg.machine,
                fault_plan=spec.fault_plan,
            )
        )
    disk_plan = next(
        (
            s.fault_plan for s in specs
            if s.fault_plan is not None and s.fault_plan.disk_plan() is not None
        ),
        None,
    )
    with _maybe_faultfs(disk_plan):
        results = BatchEngine(cells).run(progress=progress)
        flush_trace_cache()
    return [
        RunResult(
            config=spec.config,
            ipc=r.ipc,
            committed=r.committed,
            cycles=r.cycles,
            quantum_ipcs=r.quantum_ipcs,
            scheduler=r.scheduler,
        )
        for spec, r in zip(specs, results)
    ]


def run_mix_average(
    mixes: Sequence[str],
    base: RunConfig,
    heuristic: Optional[str] = None,
    thresholds: Optional[ThresholdConfig] = None,
) -> Dict:
    """Average a configuration over several mixes (the paper reports
    'Average for All Combinations'). Fixed policy when ``heuristic`` is
    None, else ADTS."""
    if not mixes:
        raise ValueError("mixes must be a non-empty sequence of mix names")
    ipcs: List[float] = []
    switches = 0
    benign_events = 0
    judged_events = 0
    for mix in mixes:
        cfg = replace(base, mix=mix)
        if heuristic is None:
            result = run_fixed(cfg)
        else:
            result = run_adts(cfg, heuristic=heuristic, thresholds=thresholds)
            switches += result.scheduler.get("switches", 0)
            p = result.scheduler.get("benign_probability", 0.0)
            n = result.scheduler.get("switches", 0)
            benign_events += p * n
            judged_events += n
        ipcs.append(result.ipc)
    return {
        "mean_ipc": sum(ipcs) / len(ipcs),
        "per_mix_ipc": dict(zip(mixes, ipcs)),
        "switches": switches,
        "benign_probability": benign_events / judged_events if judged_events else 0.0,
    }

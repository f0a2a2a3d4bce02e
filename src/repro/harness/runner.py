"""Single-run drivers: one (mix, scheduler) combination → one result.

A run is described one way: a :class:`BatchRunSpec` (a :class:`RunConfig`
plus the scheduler selection). :func:`run_spec` runs one spec through the
sequential drivers, :func:`run_batch` runs many through one lockstep
:class:`~repro.smt.batch.BatchEngine` pass, and :func:`run_key` is the one
identity of a run: the grid journal's cell key and the checkpoint resume
guard alike.

Beyond the plain drivers, runs can opt into three robustness features:

* ``progress`` — a callback fired at every quantum boundary with the index
  of the quantum that just finished; the supervised executor uses it as the
  worker heartbeat (a run that stops calling it is hung, not slow);
* ``checkpoint`` — a snapshot file path: the run snapshots its complete
  simulator state after every quantum, and a later call with the same path
  *resumes* from the snapshot, bit-identical to an uninterrupted run (crash
  recovery at sub-cell granularity). A snapshot resumes only the run that
  wrote it: its :func:`run_key` must match, so a run with a different
  configuration, scheduler, fault plan, ``instant_dt`` or invariants mode
  starts from cycle zero instead;
* ``invariants`` — installs an :class:`~repro.smt.invariants.InvariantChecker`
  outside the hook chain (``"raise"``, ``"watchdog"`` or ``"record"`` mode).

All three are exact-result-preserving: a run with any combination of them
enabled produces the same :class:`RunResult` as a bare run, because quanta
are stepped on exactly the same cycle boundaries either way.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultInjector, FaultPlan
from repro.harness.errors import ConfigError, StorageError
from repro.policies.registry import POLICY_NAMES
from repro.smt.checkpoint import (
    CheckpointError,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.smt.config import SMTConfig
from repro.smt.invariants import InvariantChecker
from repro.storage.faultfs import faultfs_session
from repro.workloads import get_mix, mix_names

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
    """Outcome of one run (post-warmup window).

    ``fingerprint`` is the machine's :meth:`~repro.smt.pipeline.SMTProcessor.
    fingerprint` at the end of the run, so two results that compare equal
    ran the same machine trajectory, not just the same window totals.
    """

    config: RunConfig
    ipc: float
    committed: int
    cycles: int
    quantum_ipcs: List[float] = field(default_factory=list)
    scheduler: Dict = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def mean_quantum_ipc(self) -> float:
        return sum(self.quantum_ipcs) / len(self.quantum_ipcs) if self.quantum_ipcs else 0.0


@dataclass(frozen=True)
class BatchRunSpec:
    """One run: a :class:`RunConfig` plus the scheduler selection.

    The one description of a run below the service: the sequential drivers
    (:func:`run_spec`), the lockstep batch engine (:func:`run_batch`), grid
    cells, the service's ``service_cell`` task and :func:`run_key` all take
    it. ``mode`` is ``"adts"`` (``heuristic`` and ``thresholds`` select the
    controller; the run boots on ICOUNT) or ``"fixed"`` (``config.policy``
    runs unattended).
    """

    config: RunConfig
    mode: str = "adts"
    heuristic: str = "type3"
    thresholds: Optional[ThresholdConfig] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.mode not in ("adts", "fixed"):
            raise ConfigError("mode", self.mode, "'adts' or 'fixed'")

    def without_worker_faults(self) -> "BatchRunSpec":
        """This spec minus its plan's process-killing faults (what a
        supervised retry runs)."""
        if self.fault_plan is None:
            return self
        return replace(self, fault_plan=self.fault_plan.without_worker_faults())


def run_key(
    spec: BatchRunSpec,
    instant_dt: bool = False,
    invariants: Optional[str] = None,
) -> str:
    """The one identity of a run: the grid journal's cell key and the key a
    checkpoint must carry to be resumed.

    Covers every :class:`RunConfig` field (``machine`` included), the mode
    and its scheduler (the heuristic and every :class:`ThresholdConfig`
    field for ADTS), ``instant_dt`` and the ``invariants`` mode. The fault
    plan is included only when a result-affecting (non-disk) family is on:
    disk faults never change a result, so a disk-chaos run shares its key
    (and a grid its journal) with the fault-free run.
    """
    from repro.harness.journal import RunJournal

    cfg = spec.config
    key = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    key.update(mode=spec.mode, instant_dt=instant_dt, invariants=invariants)
    if spec.mode == "adts":
        key["heuristic"] = spec.heuristic
        key["thresholds"] = asdict(spec.thresholds or ThresholdConfig())
    plan = spec.fault_plan
    if plan is not None and plan.any_scheduler_enabled:
        key["faults"] = repr(plan)
    return RunJournal.cell_key(**key)


def _measure(
    proc,
    cfg: RunConfig,
    scheduler_summary: Dict,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    controller=None,
    injector=None,
    key: Optional[str] = None,
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
            if checkpoint is not None and done < total:
                try:
                    save_checkpoint(
                        checkpoint, proc, controller, injector,
                        meta={"run_key": key, "fingerprint": proc.fingerprint()},
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
        if checkpoint is not None:
            discard_checkpoint(checkpoint)  # a finished run needs no resume point
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
        fingerprint=proc.fingerprint(),
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


def _maybe_faultfs(fault_plan: Optional[FaultPlan]):
    """Scope the plan's disk-fault family around a run's storage I/O.

    No-op (an active outer injector stays active) when the plan carries no
    disk faults; otherwise a fresh seeded
    :class:`~repro.storage.faultfs.FaultFS` is installed for the run so
    every checkpoint write and read inside it goes through the injector.
    Its tally stays out of the :class:`RunResult`: disk faults never change
    a result, so a disk-faulted run returns exactly its clean twin's result,
    as their shared :func:`run_key` promises.
    """
    disk = fault_plan.disk_plan() if fault_plan is not None else None
    return faultfs_session(disk) if disk is not None else nullcontext()


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


def _try_resume(checkpoint: Optional[Union[str, Path]], key: str):
    """Load the snapshot at ``checkpoint`` if one exists and was written by
    the run ``key`` names; None means start fresh.

    A snapshot that fails validation is not fatal: ``load_checkpoint`` has
    already quarantined the damaged file, and starting from cycle zero is
    always correct (just slower) — raising here would burn a supervised
    retry on every attempt against the same bad bytes. A snapshot of
    another run is intact, so it is not quarantined: this run ignores it
    and its own snapshots replace it.
    """
    if checkpoint is None or not Path(checkpoint).exists():
        return None
    try:
        return load_checkpoint(checkpoint, expect_meta={"run_key": key})
    except CheckpointError as exc:
        log.warning("ignoring unusable checkpoint (%s); starting fresh", exc)
        return None


def _run(
    spec: BatchRunSpec,
    new_controller: Optional[Callable[[], ADTSController]],
    instant_dt: bool,
    progress: Optional[ProgressFn],
    checkpoint: Optional[Union[str, Path]],
    invariants: Optional[str],
) -> RunResult:
    """The body of ``run_fixed`` and ``run_adts``: build (or resume) the
    machine, measure it and summarize the hook chain. ``new_controller``
    builds the ADTS controller; None runs ``spec.config.policy``
    unattended."""
    cfg, plan = spec.config, spec.fault_plan
    with _maybe_faultfs(plan):
        key = run_key(spec, instant_dt, invariants)
        snap = _try_resume(checkpoint, key)
        if snap is not None:
            proc, controller, injector = snap.processor, snap.controller, snap.injector
        else:
            controller = new_controller() if new_controller is not None else None
            hook, injector = _maybe_inject(controller, plan)
            hook, _ = _maybe_check(hook, invariants)
            proc = build_processor(
                mix=cfg.mix,
                num_threads=cfg.num_threads,
                seed=cfg.seed,
                config=cfg.machine,
                # ADTS starts on its initial/default policy (§4.3.3).
                policy="icount" if spec.mode == "adts" else cfg.policy,
                hook=hook,
                quantum_cycles=cfg.quantum_cycles,
            )
        checker = proc.hook if isinstance(proc.hook, InvariantChecker) else None
        if spec.mode == "adts":
            summary = {"mode": "adts", "heuristic": spec.heuristic}
        else:
            summary = {"mode": "fixed", "policy": cfg.policy}
        result = _measure(
            proc, cfg, summary,
            progress=progress, checkpoint=checkpoint,
            controller=controller, injector=injector, key=key,
        )
        if controller is not None:
            result.scheduler.update(controller.summary())
        if injector is not None:
            result.scheduler.update(injector.summary())
        if checker is not None:
            result.scheduler.update(checker.summary())
        proc.hook.detach()  # the result is measured: free the machine by refcount
        return result


def run_fixed(
    cfg: RunConfig,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    invariants: Optional[str] = None,
) -> RunResult:
    """Run under the fixed fetch policy named in ``cfg.policy``."""
    spec = BatchRunSpec(config=cfg, mode="fixed", fault_plan=fault_plan)
    return _run(spec, None, False, progress, checkpoint, invariants)


def run_adts(
    cfg: RunConfig,
    heuristic: str = "type3",
    thresholds: Optional[ThresholdConfig] = None,
    instant_dt: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    invariants: Optional[str] = None,
) -> RunResult:
    """Run under ADTS with the given heuristic and thresholds.

    ``fault_plan`` (optional) interposes a seeded
    :class:`~repro.faults.FaultInjector` between the pipeline and the
    controller. With a ``checkpoint`` path whose snapshot was written by
    this same run (same :func:`run_key`), the run resumes from it; a
    snapshot that is damaged or belongs to another run is
    quarantined/ignored and the run starts fresh (always correct, merely
    slower).
    """
    th = thresholds or ThresholdConfig()
    spec = BatchRunSpec(config=cfg, mode="adts", heuristic=heuristic,
                        thresholds=th, fault_plan=fault_plan)

    def new_controller() -> ADTSController:
        return ADTSController(heuristic=heuristic, thresholds=th, instant_dt=instant_dt)

    return _run(spec, new_controller, instant_dt, progress, checkpoint, invariants)


def run_spec(
    spec: BatchRunSpec,
    progress: Optional[ProgressFn] = None,
    checkpoint: Optional[Union[str, Path]] = None,
) -> RunResult:
    """Run one spec sequentially: :func:`run_adts` or :func:`run_fixed` by
    ``spec.mode``, looked up as module globals at call time."""
    cfg = spec.config
    if spec.mode == "adts":
        return run_adts(cfg, heuristic=spec.heuristic, thresholds=spec.thresholds,
                        fault_plan=spec.fault_plan, progress=progress,
                        checkpoint=checkpoint)
    return run_fixed(cfg, fault_plan=spec.fault_plan, progress=progress,
                     checkpoint=checkpoint)


def run_batch(
    specs: Sequence[BatchRunSpec],
    progress: Optional[ProgressFn] = None,
) -> List[RunResult]:
    """Run many specs through one lockstep :class:`~repro.smt.batch.BatchEngine`
    pass, sharing trace streams and (where trajectories coincide) whole
    machine steps across runs. The engine runs its groups depth-first, so
    a batch holds one live machine however many trajectories it forks
    into.

    Each result equals the corresponding :func:`run_spec` result,
    fingerprint included: the engine forks shared machines the moment runs
    diverge, so sharing is a pure performance transform. Runs whose plan
    carries scheduler faults run solo (their own injector, no cross-run
    bleed) but still share trace streams. A pass does no storage I/O, so
    a plan's disk-fault family has nothing to act on here.

    ``progress`` is called after every quantum step the engine takes, with
    the number of steps so far (the batch analogue of the per-quantum
    heartbeat).
    """
    from repro.smt.batch import BatchEngine

    return BatchEngine(specs).run(progress=progress)


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

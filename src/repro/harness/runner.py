"""Single-run drivers: one (mix, scheduler) combination → one result.

A run is described one way, a :class:`BatchRunSpec` (a :class:`RunConfig`
plus the scheduler selection), and identified one way: :func:`run_key`,
the digest of its :func:`run_fields`, keys grid-journal cells and, as
:func:`~repro.service.identity.request_identity`, the service's store,
routing, verifier and DLQ. :func:`run_spec` runs one spec through the
sequential drivers, :func:`run_batch` runs many through one lockstep
:class:`~repro.smt.batch.BatchEngine` pass, and both build their results
with :func:`measured_result`.

A run does no storage I/O: its result is a pure function of its key, so
a run that dies is recovered by running it again from cycle zero. Beyond
the plain drivers, runs can opt into two robustness features:

* ``progress`` — a callback fired at every quantum boundary with the index
  of the quantum that just finished; the supervised executor uses it as the
  worker heartbeat (a run that stops calling it is hung, not slow);
* ``invariants`` — installs an :class:`~repro.smt.invariants.InvariantChecker`
  outside the hook chain (``"raise"``, ``"watchdog"`` or ``"record"`` mode).

Both are exact-result-preserving: a run with either enabled produces the
same :class:`RunResult` as a bare run, because quanta are stepped on
exactly the same cycle boundaries either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.heuristics import HEURISTICS
from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultInjector, FaultPlan
from repro.harness.errors import ConfigError
from repro.policies.registry import POLICY_NAMES
from repro.smt.config import SMTConfig
from repro.smt.invariants import InvariantChecker
from repro.workloads import get_mix, mix_names

ProgressFn = Callable[[int], None]


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

    def payload(self) -> Dict:
        """The cell payload: what a grid journal records for a cell and a
        service answer carries (the two share it)."""
        return {
            "ipc": self.ipc,
            "switches": self.scheduler.get("switches", 0),
            "benign_probability": self.scheduler.get("benign_probability", 0.0),
        }


@dataclass(frozen=True)
class BatchRunSpec:
    """One run: a :class:`RunConfig` plus the scheduler selection.

    The one description of a run below the service: the sequential drivers
    (:func:`run_spec`), the lockstep batch engine (:func:`run_batch`), grid
    cells, the service's ``service_cell`` task and :func:`run_fields` all
    take it. ``mode`` is ``"adts"`` (``heuristic`` and ``thresholds`` select
    the controller; the run boots on ICOUNT) or ``"fixed"``
    (``config.policy`` runs unattended). An unknown mode or heuristic
    raises :class:`ConfigError`.
    """

    config: RunConfig
    mode: str = "adts"
    heuristic: str = "type3"
    thresholds: Optional[ThresholdConfig] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.mode not in ("adts", "fixed"):
            raise ConfigError("mode", self.mode, "'adts' or 'fixed'")
        if self.heuristic not in HEURISTICS:
            raise ConfigError("heuristic", self.heuristic, f"one of {sorted(HEURISTICS)}")

    @property
    def initial_policy(self) -> str:
        """The policy the machine boots on: ADTS always starts on ICOUNT
        (§4.3.3), a fixed run on its own policy."""
        return "icount" if self.mode == "adts" else self.config.policy

    def without_worker_faults(self) -> "BatchRunSpec":
        """This spec minus its plan's process-killing faults (what a
        supervised retry runs)."""
        if self.fault_plan is None:
            return self
        return replace(self, fault_plan=self.fault_plan.without_worker_faults())


#: Bump when :func:`run_fields` changes shape: stored results keyed under
#: an old scheme must re-simulate rather than mis-hit.
IDENTITY_SCHEME = 1

#: What a run's nested configs are keyed against.
_DEFAULTS = {cls: cls() for cls in (ThresholdConfig, SMTConfig, FaultPlan)}


def _changed(value, skip: tuple = ()) -> Dict:
    """``value``'s fields that differ from its class's defaults, except
    those named with a ``skip`` prefix; floats coerced, so ``2`` and
    ``2.0`` key the same."""
    default = _DEFAULTS[type(value)]
    out = {}
    for f in fields(value):
        v, d = getattr(value, f.name), getattr(default, f.name)
        if v != d and not f.name.startswith(skip):
            out[f.name] = (asdict(v) if is_dataclass(v)
                           else float(v) if isinstance(d, float) else v)
    return out


def run_fields(spec: BatchRunSpec) -> Dict:
    """A run's identity: ``spec`` projected onto the fields that decide its
    result. Equal projections are the same seeded simulation. Fields the
    run ignores are dropped (an ADTS run's starting policy, a fixed run's
    heuristic and thresholds), numbers are coerced, nested configs key
    only their non-default fields, and the fault plan appears only when a
    non-disk family is on (disk faults never change a result)."""
    cfg = spec.config
    mix = cfg.mix
    out = {
        "scheme": IDENTITY_SCHEME,
        "mix": mix if isinstance(mix, str) else [str(app) for app in mix],
        "mode": spec.mode,
        "quanta": int(cfg.quanta),
        "warmup_quanta": int(cfg.warmup_quanta),
        "quantum_cycles": int(cfg.quantum_cycles),
        "num_threads": int(cfg.num_threads),
        "seed": int(cfg.seed),
    }
    if spec.mode == "adts":
        thresholds = spec.thresholds or _DEFAULTS[ThresholdConfig]
        out["scheduler"] = spec.heuristic
        out["ipc_threshold"] = float(thresholds.ipc_threshold)
        out.update(_changed(thresholds, skip=("ipc_threshold",)))
    else:
        out["scheduler"] = cfg.policy
    if cfg.machine is not None:
        out["machine"] = _changed(cfg.machine)
    plan = spec.fault_plan
    if plan is not None and plan.any_scheduler_enabled:
        out["faults"] = _changed(plan, skip=("disk_",))
    return out


def fields_digest(fields: Dict) -> str:
    """SHA-256 hex digest of the canonical JSON of ``fields`` (sorted keys)."""
    blob = json.dumps(fields, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_key(spec: BatchRunSpec) -> str:
    """The key of a run: the digest of its :func:`run_fields`. A grid
    journal files each cell under it, and a request's identity is the key
    of its run spec."""
    return fields_digest(run_fields(spec))


def measured_result(spec: BatchRunSpec, history: Sequence, fingerprint: str,
                    *hooks) -> RunResult:
    """A finished run's result: ``spec``'s window of the per-quantum
    ``history`` plus the summaries of its ``hooks`` (controller, injector,
    invariant checker; None skipped). Sequential and batch runs both
    build their results here."""
    cfg = spec.config
    window = history[cfg.warmup_quanta:cfg.total_quanta()]
    committed = sum(q.committed for q in window)
    cycles = sum(q.cycles for q in window)
    if spec.mode == "adts":
        scheduler = {"mode": "adts", "heuristic": spec.heuristic}
    else:
        scheduler = {"mode": "fixed", "policy": cfg.policy}
    for hook in hooks:
        if hook is not None:
            scheduler.update(hook.summary())
    return RunResult(
        config=cfg,
        ipc=committed / cycles if cycles else 0.0,
        committed=committed,
        cycles=cycles,
        quantum_ipcs=[q.ipc for q in window],
        scheduler=scheduler,
        fingerprint=fingerprint,
    )


def _advance(proc, cfg: RunConfig, progress: Optional[ProgressFn] = None) -> None:
    """Advance ``proc`` to ``cfg.total_quanta()`` quanta, heartbeating
    after each quantum when asked.

    The result (:func:`measured_result`) is derived purely from the
    per-quantum history, so it is identical whether the run went straight
    through or was stepped quantum by quantum for heartbeats.
    """
    total = cfg.total_quanta()
    if progress is None:
        proc.run_quanta(total)
        return
    while proc.quantum_index < total:
        proc.run_quanta(1)
        progress(proc.quantum_index)


def _maybe_inject(hook, fault_plan: Optional[FaultPlan]):
    """Wrap ``hook`` in a FaultInjector when a plan with live faults is given.

    Returns ``(hook_to_install, injector_or_None)``.
    """
    if fault_plan is None or not fault_plan.any_scheduler_enabled:
        # Disk-only plans don't touch the hook chain: a run does no storage
        # I/O, so they act only where the caller writes artifacts.
        return hook, None
    injector = FaultInjector(fault_plan, hook)
    return injector, injector


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


def _run(
    spec: BatchRunSpec,
    controller: Optional[ADTSController],
    progress: Optional[ProgressFn],
    invariants: Optional[str],
) -> RunResult:
    """The body of ``run_fixed`` and ``run_adts``: build the machine,
    measure it and summarize the hook chain. With no ``controller`` the
    machine runs ``spec.config.policy`` unattended."""
    cfg = spec.config
    hook, injector = _maybe_inject(controller, spec.fault_plan)
    hook, checker = _maybe_check(hook, invariants)
    proc = build_processor(
        mix=cfg.mix,
        num_threads=cfg.num_threads,
        seed=cfg.seed,
        config=cfg.machine,
        policy=spec.initial_policy,
        hook=hook,
        quantum_cycles=cfg.quantum_cycles,
    )
    _advance(proc, cfg, progress=progress)
    result = measured_result(spec, proc.stats.quantum_history, proc.fingerprint(),
                             controller, injector, checker)
    proc.hook.detach()  # the result is measured: free the machine by refcount
    return result


def run_fixed(
    cfg: RunConfig,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[ProgressFn] = None,
    invariants: Optional[str] = None,
) -> RunResult:
    """Run under the fixed fetch policy named in ``cfg.policy``."""
    spec = BatchRunSpec(config=cfg, mode="fixed", fault_plan=fault_plan)
    return _run(spec, None, progress, invariants)


def run_adts(
    cfg: RunConfig,
    heuristic: str = "type3",
    thresholds: Optional[ThresholdConfig] = None,
    instant_dt: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[ProgressFn] = None,
    invariants: Optional[str] = None,
) -> RunResult:
    """Run under ADTS with the given heuristic and thresholds.

    ``fault_plan`` (optional) interposes a seeded
    :class:`~repro.faults.FaultInjector` between the pipeline and the
    controller.
    """
    th = thresholds or ThresholdConfig()
    spec = BatchRunSpec(config=cfg, mode="adts", heuristic=heuristic,
                        thresholds=th, fault_plan=fault_plan)
    controller = ADTSController(heuristic=heuristic, thresholds=th, instant_dt=instant_dt)
    return _run(spec, controller, progress, invariants)


def run_spec(spec: BatchRunSpec, progress: Optional[ProgressFn] = None) -> RunResult:
    """Run one spec sequentially: :func:`run_adts` or :func:`run_fixed` by
    ``spec.mode``, looked up as module globals at call time."""
    cfg = spec.config
    if spec.mode == "adts":
        return run_adts(cfg, heuristic=spec.heuristic, thresholds=spec.thresholds,
                        fault_plan=spec.fault_plan, progress=progress)
    return run_fixed(cfg, fault_plan=spec.fault_plan, progress=progress)


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

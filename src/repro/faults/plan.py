"""Deterministic fault plans.

A :class:`FaultPlan` is a frozen description of *which* perturbations to
inject and *how often*, plus its own seed. All randomness during injection
comes from a :class:`~repro.util.randpool.RandPool` derived from that seed
through the standard :class:`~repro.util.seeds.SeedSequencer` substream
machinery, so a (workload seed, fault plan) pair always reproduces the same
run byte-for-byte — faulty runs are as replayable as clean ones.

Rates are per scheduling-quantum boundary (the granularity at which the
detector thread reads the machine), matching the failure modes the paper's
§3–§4 discussion worries about: counters describing a quantum that is
already over, detector-thread work arriving late or not at all, and policy
commands that never land.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

#: CLI-facing fault families (``--faults counters,dt``). ``worker`` is the
#: process-level family (hard crash / CPU-bound hang of the hosting
#: process); it exists to exercise the supervised executor and is therefore
#: *not* part of ``all`` — an unsupervised run has nothing to contain it.
#: ``service`` is likewise service-level (synthetic overload at admission,
#: forced full-tier failures that push a circuit breaker toward open); it
#: only has meaning behind the service front door
#: (:class:`~repro.service.router.ShardedService`) and is also excluded from
#: ``all``. ``disk`` is the filesystem family (torn
#: writes, ENOSPC, failed renames — injected at the storage layer by
#: :mod:`repro.storage.faultfs`, not at scheduler boundaries); it never
#: changes simulation results (artifacts are recovered or regenerated), so
#: it too is excluded from ``all`` and must be requested by name.
#: ``corruption`` is the silent-data-corruption family (a served result's
#: summary counters bit-flipped between computation and the front door);
#: like ``service`` it only has meaning under the serving stack — here the
#: front door — and is excluded from ``all``.
FAULT_KINDS = (
    "counters", "dt", "policy", "hangs", "worker", "service", "corruption", "disk"
)

#: The families ``--faults all`` (and :meth:`FaultPlan.storm`) enable.
IN_PROCESS_FAULT_KINDS = ("counters", "dt", "policy", "hangs")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of the faults to inject.

    Attributes:
        seed: root seed of the injector's private random stream.
        counter_stale_rate: P(per boundary) the detector sees the *previous*
            quantum's status counters (a stale read).
        counter_bitflip_rate: P(per boundary) one counter field is read with
            one bit flipped.
        dt_drop_rate: P(per boundary) all queued detector-thread work is
            lost (its completions never fire).
        dt_delay_rate: P(per boundary) the DT is handed a bogus task of
            :data:`~repro.faults.injector.DT_DELAY_INSTRUCTIONS` that
            delays everything behind it.
        dt_starvation_rate: P(per boundary) a forced starvation window
            begins: the DT sees zero idle slots for
            :data:`~repro.faults.injector.DT_STARVATION_CYCLES` cycles.
        policy_drop_rate: P(per switch command) a policy switch is lost.
        policy_spurious_rate: P(per boundary) a spurious switch to a random
            policy is applied behind the controller's back.
        thread_hang_rate: P(per boundary) one workload thread transiently
            hangs (cannot fetch) for
            :data:`~repro.faults.injector.THREAD_HANG_CYCLES` cycles.
        worker_crash_rate: P(per boundary) the hosting *process* dies by
            SIGKILL — the segfault/OOM-kill stand-in that exercises a
            supervisor's crash containment. Only meaningful under
            :class:`~repro.harness.executor.SupervisedExecutor`.
        worker_hang_rate: P(per boundary) the hosting process busy-spins
            (CPU-bound, heartbeats stop) for
            :data:`~repro.faults.injector.WORKER_HANG_SECONDS` — a hang no
            in-process timeout can stop; only the supervisor's SIGKILL
            ends it.
        service_overload_rate: P(per submitted request) the simulation
            service treats its admission queue as saturated for that
            submit, forcing the request down the degradation ladder
            (degrade or reject) regardless of true queue depth — the
            chaos stand-in for a traffic spike.
        service_breaker_trip_rate: P(per full-fidelity dispatch) the
            dispatched attempt is forced to fail (worker SIGKILL under a
            supervised pool), pushing the service's circuit breaker toward
            open. Only meaningful behind the service front door
            (:class:`~repro.service.router.ShardedService`).
        service_corrupt_result_rate: P(per full-fidelity result crossing
            the serving front door) one mantissa bit of a summary counter
            is silently flipped before the payload is served and stored —
            the serving-layer analogue of ``counter_bitflip_rate``: no
            crash, no error, just a wrong answer with a valid checksum.
            Only meaningful under
            :class:`~repro.service.router.ShardedService`, whose shadow
            verifier exists to catch exactly this.
        disk_torn_write_rate: P(per storage write) only a prefix of the
            data lands before the write fails (power-loss tear).
        disk_enospc_rate: P(per storage write) the device fills up after
            :data:`~repro.storage.faultfs.ENOSPC_AFTER_BYTES` bytes (ENOSPC
            mid-record).
        disk_rename_fail_rate: P(per atomic rename) the rename fails,
            leaving only the temp file.
    """

    seed: int = 0
    counter_stale_rate: float = 0.0
    counter_bitflip_rate: float = 0.0
    dt_drop_rate: float = 0.0
    dt_delay_rate: float = 0.0
    dt_starvation_rate: float = 0.0
    policy_drop_rate: float = 0.0
    policy_spurious_rate: float = 0.0
    thread_hang_rate: float = 0.0
    worker_crash_rate: float = 0.0
    worker_hang_rate: float = 0.0
    service_overload_rate: float = 0.0
    service_breaker_trip_rate: float = 0.0
    service_corrupt_result_rate: float = 0.0
    disk_torn_write_rate: float = 0.0
    disk_enospc_rate: float = 0.0
    disk_rename_fail_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"FaultPlan.{f.name}={value!r}: must be in [0, 1]")

    @property
    def any_scheduler_enabled(self) -> bool:
        """True when a *result-affecting* (non-disk) family is live.

        Disk faults only perturb the storage layer — artifacts are
        recovered or regenerated, never silently wrong — so they neither
        need a :class:`~repro.faults.injector.FaultInjector` on the scheduler hook
        chain nor belong in a sweep cell's identity key.
        """
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name.endswith("_rate") and not f.name.startswith("disk_")
        )

    @property
    def any_disk_enabled(self) -> bool:
        """True when at least one disk fault has a non-zero rate."""
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name.startswith("disk_") and f.name.endswith("_rate")
        )

    def without_worker_faults(self) -> "FaultPlan":
        """The same plan with the process-level (crash/hang) family off.

        The supervised executor applies this on retries: worker faults exist
        to exercise the supervisor once, not to make a cell permanently
        unrunnable (a seeded crash would otherwise recur on every attempt).
        """
        if self.worker_crash_rate == 0.0 and self.worker_hang_rate == 0.0:
            return self
        return replace(self, worker_crash_rate=0.0, worker_hang_rate=0.0)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_kinds(
        cls, kinds: Sequence[str], rate: float = 0.25, seed: int = 0
    ) -> "FaultPlan":
        """Build a plan enabling whole fault families at a shared rate.

        ``kinds`` is a subset of :data:`FAULT_KINDS` (or ``["all"]``, which
        enables the in-process families only — ``worker`` faults kill the
        hosting process and must be requested by name).
        """
        chosen = set(kinds)
        if "all" in chosen:
            chosen = set(IN_PROCESS_FAULT_KINDS)
        unknown = chosen - set(FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; known: {list(FAULT_KINDS)} or 'all'"
            )
        kw = {}
        if "counters" in chosen:
            kw["counter_stale_rate"] = rate
            kw["counter_bitflip_rate"] = rate
        if "dt" in chosen:
            kw["dt_drop_rate"] = rate
            kw["dt_delay_rate"] = rate
            kw["dt_starvation_rate"] = rate
        if "policy" in chosen:
            kw["policy_drop_rate"] = rate
            kw["policy_spurious_rate"] = rate
        if "hangs" in chosen:
            kw["thread_hang_rate"] = rate
        if "worker" in chosen:
            kw["worker_crash_rate"] = rate
            kw["worker_hang_rate"] = rate
        if "service" in chosen:
            kw["service_overload_rate"] = rate
            kw["service_breaker_trip_rate"] = rate
        if "corruption" in chosen:
            kw["service_corrupt_result_rate"] = rate
        if "disk" in chosen:
            kw["disk_torn_write_rate"] = rate
            kw["disk_enospc_rate"] = rate
            kw["disk_rename_fail_rate"] = rate
        return cls(seed=seed, **kw)

    @classmethod
    def storm(cls, seed: int = 0, rate: float = 0.25) -> "FaultPlan":
        """Everything at once — the resilience experiment's stress preset."""
        return cls.from_kinds(["all"], rate=rate, seed=seed)

    @classmethod
    def chaos_day(
        cls, seed: int = 0, rate: float = 0.1, corrupt_rate: float = 0.0
    ) -> "FaultPlan":
        """The combined-fault campaign preset: every *recoverable* family.

        Enables the service family (synthetic overload + forced breaker
        trips) and the recoverable disk faults (torn writes, ENOSPC, failed
        renames) at ``rate``; the in-process scheduler families and worker
        crash/hang ride along per-request via
        :attr:`~repro.service.request.SimRequest.fault_kinds` so they land inside
        supervised attempts rather than in the service process.
        ``corrupt_rate`` enables the silent
        result-corruption family separately: it is only survivable when
        the campaign also runs shadow verification, so it must be asked
        for explicitly (``repro chaosday --corrupt-rate``).
        """
        return cls(
            seed=seed,
            service_overload_rate=rate,
            service_breaker_trip_rate=rate,
            service_corrupt_result_rate=corrupt_rate,
            disk_torn_write_rate=rate,
            disk_enospc_rate=rate,
            disk_rename_fail_rate=rate,
        )

"""One overload-safe shard of the simulation service.

``SimulationService`` turns the batch harness into a long-lived component
that can accept a *stream* of simulation requests and protect itself under
load instead of falling over. It is internal: the front door,
:class:`~repro.service.router.ShardedService`, owns one per shard and is
what every caller builds. Four mechanisms, layered:

1. **Admission control / backpressure** — a bounded
   :class:`~repro.service.admission.AdmissionQueue` (priority, EDF,
   per-client fairness caps). A full queue refuses work with a
   machine-readable reason; a job whose deadline lapses while queued is
   shed at dequeue. Nothing is ever silently dropped: every submitted
   request receives exactly one :class:`~repro.service.request.SimResponse`.

2. **Circuit breaking** — a
   :class:`~repro.service.breaker.CircuitBreaker` watches consecutive
   full-fidelity failures (the supervisor's taxonomy: crash / timeout /
   stalled-heartbeat / exception / invariant). Open = stop dispatching to
   the detailed engine; half-open = one canary probe; success closes.

3. **Graceful degradation** — the paper's own move, applied to the serving
   layer: ADTS switches *scheduling policy* when throughput sags; the
   service switches *simulation engine* when the full pipeline can't keep
   up. Under queue pressure or an open breaker, degradable requests are
   served by the calibrated :func:`~repro.fastmodel.model.fast_serve` model, the
   response explicitly marked ``degraded: true`` with the reason recorded.
   Full-fidelity service restores itself when pressure subsides.

4. **Graceful drain** — :meth:`SimulationService.drain` stops admission,
   lets in-flight and queued work finish inside a deadline, SIGKILLs
   stragglers past it (a killed run keeps nothing: asked again, it is
   recomputed from cycle zero), sheds what never ran, and leaves every
   request answered.

A shard keeps no finished answers: every request it admits to the full
tier is simulated. Reusing an answer is the front door's job, through
its content-addressed result store.

The service is single-threaded by design: :meth:`submit` and :meth:`pump`
are called from one thread (the front door's), while the heavy lifting
happens in supervised child processes via the streaming
:class:`~repro.harness.executor.SupervisedExecutor` API. With
``workers=0`` the full tier runs inline (deterministic, used by tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.faults.plan import FaultPlan
from repro.harness.errors import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    OUTCOME_DEGRADED,
    OUTCOME_FAILED,
    OUTCOME_FULL,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
)
from repro.harness.executor import POLL_INTERVAL_S
from repro.service.admission import AdmissionQueue
from repro.service.autoscale import Autoscaler, AutoscalerConfig
from repro.service.breaker import STATE_OPEN, CircuitBreaker
from repro.service.request import (
    QueueEntry,
    SimRequest,
    SimResponse,
    TIER_FAST,
    TIER_FULL,
    TIER_NONE,
)
from repro.util.seeds import SeedSequencer


@dataclass(frozen=True)
class ServiceConfig:
    """Service knobs.

    Attributes:
        workers: supervised full-fidelity worker processes (0 = run the
            full tier inline in the calling thread — deterministic, for
            tests and the overload demo's serial mode).
        queue_capacity: admission queue bound.
        per_client_cap: max queued jobs per client (None = capacity // 2).
        degrade_at_depth: queue depth at which degradable submits are
            served by the fast model instead of queueing (None = only when
            the queue is actually full).
        max_attempts: full-tier attempts per request before falling back
            (degrade or fail).
        breaker_failures: consecutive full-tier failures that open the
            circuit breaker.
        breaker_cooldown_s: open → half-open delay.
        run_timeout_s / heartbeat_timeout_s: per-attempt supervision limits
            (see :class:`~repro.harness.executor.ExecutorConfig`).
        drain_deadline_s: default budget for :meth:`SimulationService.drain`.
        fault_plan: service-level chaos hooks (``service_overload_rate`` /
            ``service_breaker_trip_rate``), seeded and deterministic.
        shard_id: this service's index behind the front door
            (:class:`~repro.service.router.ShardedService`); stamped on
            spawned work items so worker telemetry attributes attempts
            to their shard.
        autoscaler: scale the worker pool on queue depth, deadline-miss
            rate and breaker state (see
            :class:`~repro.service.autoscale.AutoscalerConfig`). With
            ``workers > 0`` the pool's concurrency cap follows the
            target (never killing in-flight attempts on scale-down);
            with ``workers == 0`` the target bounds how many inline
            full-tier runs one pump dispatches — same state machine,
            deterministic under a virtual clock.
    """

    workers: int = 2
    queue_capacity: int = 16
    per_client_cap: Optional[int] = None
    degrade_at_depth: Optional[int] = None
    max_attempts: int = 1
    breaker_failures: int = 3
    breaker_cooldown_s: float = 5.0
    run_timeout_s: Optional[float] = None
    heartbeat_timeout_s: Optional[float] = None
    drain_deadline_s: float = 10.0
    fault_plan: Optional[FaultPlan] = None
    autoscaler: Optional[AutoscalerConfig] = None
    shard_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.drain_deadline_s <= 0:
            raise ValueError("drain_deadline_s must be positive")


def _default_fast_runner(request: SimRequest) -> dict:
    from repro.fastmodel.model import fast_serve

    return fast_serve(
        request.mix,
        mode=request.mode,
        policy=request.policy,
        heuristic=request.heuristic,
        threshold=request.threshold,
        quanta=request.quanta,
        seed=request.seed,
        quantum_cycles=request.quantum_cycles,
        num_threads=request.num_threads,
    )


def _default_full_runner(request: SimRequest) -> dict:
    """Inline full tier (``workers=0``): the ``service_cell`` task, in-process.

    Worker-family faults are stripped — unsupervised, a seeded SIGKILL
    would take down the *service* process, which is exactly the blast
    radius the supervised pool exists to contain.
    """
    from repro.harness.executor import _run_service_cell

    spec = {"run": request.run_spec(), "strip_worker_faults": True}
    return _run_service_cell(spec, None, None)


#: Stable counter names reported by :meth:`SimulationService.stats`.
COUNTER_NAMES = (
    "submitted",
    "admitted",
    "completed_full",
    "degraded",
    "rejected",
    "shed",
    "failed",
    "retries",
    "full_failures",
    "drain_killed",
)


class SimulationService:
    """One long-running, overload-safe shard over the simulation engines,
    owned by the front door (:class:`~repro.service.router.ShardedService`)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        full_runner: Optional[Callable[[SimRequest], dict]] = None,
        fast_runner: Optional[Callable[[SimRequest], dict]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.clock = clock
        self.queue = AdmissionQueue(cfg.queue_capacity, cfg.per_client_cap)
        self.breaker = CircuitBreaker(
            cfg.breaker_failures, cfg.breaker_cooldown_s, clock
        )
        self.autoscaler = Autoscaler(cfg.autoscaler) if cfg.autoscaler else None
        self.executor = None
        if cfg.workers > 0:
            from repro.harness.executor import ExecutorConfig, SupervisedExecutor

            pool_size = cfg.workers
            if self.autoscaler is not None:
                # The pool is provisioned at the scaling ceiling; the
                # autoscaler's soft cap governs how much of it is used.
                pool_size = max(cfg.workers, cfg.autoscaler.max_workers)
            self.executor = SupervisedExecutor(
                ExecutorConfig(
                    workers=pool_size,
                    run_timeout_s=cfg.run_timeout_s,
                    heartbeat_timeout_s=cfg.heartbeat_timeout_s,
                    max_restarts=0,  # the service owns retry policy
                )
            )
            if self.autoscaler is not None:
                # Scale-down never kills a worker: the soft cap only stops
                # new spawns, so in-flight attempts always finish.
                self.executor.soft_cap = self.autoscaler.target
        self._full_runner = full_runner or _default_full_runner
        self._fast_runner = fast_runner or _default_fast_runner
        self._fault_rng = None
        if cfg.fault_plan is not None and (
            cfg.fault_plan.service_overload_rate > 0.0
            or cfg.fault_plan.service_breaker_trip_rate > 0.0
        ):
            self._fault_rng = SeedSequencer(cfg.fault_plan.seed).generator(
                "service-faults"
            )
        self._inflight: Dict[str, QueueEntry] = {}  # result_key -> entry
        self._scale_snapshot = (0, 0)  # (shed, answered) at the last observe
        self._completed: List[SimResponse] = []
        self._seq = 0
        self._accepting = True
        self._draining = False
        self.paused = False
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    # -- admission (the degradation ladder's first rung) ---------------------
    def submit(self, request: SimRequest) -> Optional[SimResponse]:
        """Offer one request to the service.

        Returns the response when the disposition is immediate (rejected,
        or served degraded at admission); returns None when the
        request was admitted to the queue — its response arrives through
        :meth:`take_completed` once a worker finishes it. Either way the
        response is also appended to the completed stream, which is the
        single source of truth for conservation accounting.
        """
        cfg = self.config
        self.counters["submitted"] += 1
        if not self._accepting:
            return self._respond_rejected(request, "draining")
        try:
            request.run_spec()  # building the run spec validates the request
        except (TypeError, ValueError) as exc:
            return self._respond_rejected(request, f"invalid-request: {exc}")

        # Ladder rung 2 (rung 1 is the front door's store hit): open
        # breaker — the full tier is presumed down.
        if self.breaker.state == STATE_OPEN:
            if request.degradable:
                return self._respond_degraded(request, "breaker-open")
            return self._respond_rejected(request, "breaker-open")

        # Ladder rung 3: queue pressure (real or chaos-injected).
        overloaded = (
            self._fault_rng is not None
            and self._fault_rng.random() < cfg.fault_plan.service_overload_rate
        )
        degrade_at = (
            cfg.degrade_at_depth
            if cfg.degrade_at_depth is not None
            else cfg.queue_capacity
        )
        if overloaded or self.queue.depth >= degrade_at:
            reason = "fault-overload" if overloaded else "queue-pressure"
            if request.degradable:
                return self._respond_degraded(request, reason)
            if overloaded:
                return self._respond_rejected(request, reason)
            # non-degradable: let the bounded queue itself decide below

        now = self.clock()
        self._seq += 1
        entry = QueueEntry(
            request=request,
            seq=self._seq,
            enqueued_at=now,
            expires_at=(
                now + request.deadline_s if request.deadline_s is not None else None
            ),
        )
        refusal = self.queue.offer(entry)
        if refusal is not None:
            if request.degradable:
                return self._respond_degraded(request, refusal)
            return self._respond_rejected(request, refusal)
        self.counters["admitted"] += 1
        return None

    # -- the dispatch pump ---------------------------------------------------
    def pump(self) -> int:
        """One non-blocking dispatch iteration; returns responses produced.

        Reaps finished worker attempts (feeding the breaker), sheds expired
        queued jobs, fast-serves the degradable backlog while the breaker
        is open, and dispatches full-fidelity attempts while capacity and
        the breaker allow.
        """
        produced = len(self._completed)
        now = self.clock()
        if self.executor is not None:
            for out in self.executor.pump():
                self._on_full_outcome(out)
        for entry in self.queue.shed_expired(now):
            self._respond_shed(entry, "deadline-expired")
        if self.autoscaler is not None:
            self._observe_pressure(now)
        if self.breaker.state == STATE_OPEN:
            while True:
                entry, shed = self.queue.take_if(
                    now, lambda e: e.request.degradable
                )
                for s in shed:
                    self._respond_shed(s, "deadline-expired")
                if entry is None:
                    break
                self._respond_degraded(entry.request, "breaker-open", entry=entry)
        if not self.paused:
            self._dispatch_full(now)
        return len(self._completed) - produced

    def _observe_pressure(self, now: float) -> None:
        """Feed the autoscaler one observation and actuate the new target."""
        c = self.counters
        answered = (
            c["completed_full"] + c["degraded"]
            + c["rejected"] + c["shed"] + c["failed"]
        )
        shed = c["shed"]
        last_shed, last_answered = self._scale_snapshot
        self._scale_snapshot = (shed, answered)
        self.autoscaler.observe(
            now,
            queue_depth=self.queue.depth,
            shed_delta=shed - last_shed,
            answered_delta=answered - last_answered,
            breaker_open=self.breaker.state == STATE_OPEN,
        )
        if self.executor is not None:
            self.executor.soft_cap = self.autoscaler.target

    def _dispatch_full(self, now: float) -> None:
        dispatched = 0
        while self.queue.depth > 0:
            if (
                self.executor is None
                and self.autoscaler is not None
                and dispatched >= self.autoscaler.target
            ):
                # Inline mode: the autoscaler target is the per-pump
                # dispatch budget — the lockstep analogue of N workers.
                break
            if self.executor is not None and not self.executor.has_capacity():
                break
            if not self.breaker.allow_full():
                break
            entry, shed = self.queue.take(now)
            for s in shed:
                self._respond_shed(s, "deadline-expired")
            if entry is None:
                # A half-open allow_full() reserved the canary slot; give it
                # back since there is nothing to probe with.
                self.breaker.cancel_probe()
                break
            entry.attempts += 1
            if entry.attempts > 1:
                self.counters["retries"] += 1
            forced = (
                self._fault_rng is not None
                and self._fault_rng.random()
                < self.config.fault_plan.service_breaker_trip_rate
            )
            if self.executor is not None:
                self._spawn_full(entry, forced)
            else:
                self._run_full_inline(entry, forced)
            dispatched += 1

    def _spawn_full(self, entry: QueueEntry, forced: bool) -> None:
        from repro.harness.executor import WorkItem

        request = entry.request
        item = WorkItem(
            label=request.request_id,
            kind="service_cell",
            spec={"run": request.run_spec(), "force_crash": forced},
            shard=self.config.shard_id,
        )
        self._inflight[item.result_key] = entry
        self.executor.spawn_attempt(item, entry.attempts)

    def _run_full_inline(self, entry: QueueEntry, forced: bool) -> None:
        request = entry.request
        if forced:
            self._on_full_failure(entry, FAILURE_CRASH, "forced breaker-trip fault")
            return
        try:
            payload = self._full_runner(request)
        except Exception as exc:  # noqa: BLE001 — taxonomy'd below
            self._on_full_failure(entry, FAILURE_EXCEPTION, repr(exc))
            return
        self._on_full_success(entry, payload)

    # -- outcome plumbing ----------------------------------------------------
    def _on_full_outcome(self, out) -> None:
        entry = self._inflight.pop(out.item.result_key, None)
        if entry is None:
            return  # killed at drain; answered there
        if out.ok:
            self._on_full_success(entry, out.payload)
        else:
            self._on_full_failure(entry, out.failure_kind, str(out.error or ""))

    def _on_full_success(self, entry: QueueEntry, payload: dict) -> None:
        self.breaker.record_success()
        self._respond_full(
            entry.request,
            payload,
            attempts=entry.attempts,
            wait_s=self.clock() - entry.enqueued_at,
        )

    def _on_full_failure(self, entry: QueueEntry, kind: str, detail: str) -> None:
        self.counters["full_failures"] += 1
        self.breaker.record_failure(kind)
        request = entry.request
        if entry.attempts < self.config.max_attempts and not self._draining:
            if self.queue.offer(entry) is None:
                return  # requeued; a later pump retries it
        if request.degradable:
            self._respond_degraded(
                request, f"full-tier-failed:{kind}", entry=entry
            )
        else:
            self._respond_failed(
                request, f"{kind}: {detail}" if detail else kind, entry.attempts
            )

    # -- response constructors ----------------------------------------------
    def _respond(self, response: SimResponse, counter: str) -> SimResponse:
        self.counters[counter] += 1
        self._completed.append(response)
        return response

    def _respond_full(
        self, request: SimRequest, payload: dict, attempts: int, wait_s: float
    ) -> SimResponse:
        return self._respond(
            SimResponse(
                request_id=request.request_id,
                client=request.client,
                outcome=OUTCOME_FULL,
                tier=TIER_FULL,
                payload=payload,
                attempts=attempts,
                wait_s=wait_s,
            ),
            "completed_full",
        )

    def _respond_degraded(
        self,
        request: SimRequest,
        reason: str,
        entry: Optional[QueueEntry] = None,
    ) -> SimResponse:
        try:
            payload = self._fast_runner(request)
        except Exception as exc:  # noqa: BLE001 — degrade must not crash serving
            return self._respond_failed(
                request, f"fast-tier-error ({reason}): {exc!r}",
                entry.attempts if entry else 0,
            )
        return self._respond(
            SimResponse(
                request_id=request.request_id,
                client=request.client,
                outcome=OUTCOME_DEGRADED,
                tier=TIER_FAST,
                degraded=True,
                reason=reason,
                payload=payload,
                attempts=entry.attempts if entry else 0,
                wait_s=(self.clock() - entry.enqueued_at) if entry else 0.0,
            ),
            "degraded",
        )

    def serve_degraded(self, request: SimRequest, reason: str) -> SimResponse:
        """Answer ``request`` on the fast tier now, for a front door that
        applies a degradation rung itself (see
        :meth:`~repro.service.router.ShardedService.submit`). Counted here
        like any degraded answer, but handed back to the caller — which
        answers it — instead of joining this service's completed stream."""
        self.counters["submitted"] += 1
        response = self._respond_degraded(request, reason)
        self._completed.pop()  # the response _respond_degraded just queued
        return response

    def _respond_failed(
        self, request: SimRequest, reason: str, attempts: int
    ) -> SimResponse:
        """The one ``failed`` answer: a non-degradable request whose full
        tier failed or was killed at drain, or a fast tier that raised."""
        return self._respond(
            SimResponse(
                request_id=request.request_id,
                client=request.client,
                outcome=OUTCOME_FAILED,
                tier=TIER_NONE,
                reason=reason,
                attempts=attempts,
            ),
            "failed",
        )

    def _respond_rejected(self, request: SimRequest, reason: str) -> SimResponse:
        return self._respond(
            SimResponse(
                request_id=request.request_id,
                client=request.client,
                outcome=OUTCOME_REJECTED,
                tier=TIER_NONE,
                reason=reason,
            ),
            "rejected",
        )

    def _respond_shed(self, entry: QueueEntry, reason: str) -> SimResponse:
        return self._respond(
            SimResponse(
                request_id=entry.request.request_id,
                client=entry.request.client,
                outcome=OUTCOME_SHED,
                tier=TIER_NONE,
                reason=reason,
                attempts=entry.attempts,
                wait_s=self.clock() - entry.enqueued_at,
            ),
            "shed",
        )

    # -- consumption ---------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Requests currently occupying a worker (or inline slot)."""
        return len(self._inflight)

    @property
    def pending(self) -> int:
        """Admitted work still owing a response (queued + in flight)."""
        return self.queue.depth + len(self._inflight)

    def take_completed(self) -> List[SimResponse]:
        """Drain and return responses produced since the last call."""
        out, self._completed = self._completed, []
        return out

    # -- drain ---------------------------------------------------------------
    def drain(self, deadline_s: Optional[float] = None) -> dict:
        """Stop admission and wind down; every request still gets answered.

        Queued and in-flight work is given ``deadline_s`` (default
        ``config.drain_deadline_s``) to finish through the normal pump.
        Past the deadline, live workers are SIGKILLed and their requests
        are served degraded (or failed, if not degradable) with reason
        ``drain-killed``; work still queued is shed with reason
        ``drain-deadline``. Returns the final :meth:`stats` snapshot.
        """
        self._accepting = False
        self._draining = True
        self.paused = False
        budget = deadline_s if deadline_s is not None else self.config.drain_deadline_s
        deadline = self.clock() + budget
        while (self.queue.depth > 0 or self._inflight) and self.clock() < deadline:
            self.pump()
            if self.executor is not None and (self._inflight or self.queue.depth):
                time.sleep(POLL_INTERVAL_S)
        if self.executor is not None:
            self.executor.shutdown()  # kills stragglers and idle workers
        if self._inflight:
            for _, entry in sorted(self._inflight.items()):
                self.counters["drain_killed"] += 1
                if entry.request.degradable:
                    self._respond_degraded(entry.request, "drain-killed", entry=entry)
                else:
                    self._respond_failed(entry.request, "drain-killed", entry.attempts)
            self._inflight.clear()
        for entry in self.queue.drain_all():
            self._respond_shed(entry, "drain-deadline")
        return self.stats()

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        """Full telemetry snapshot (counters, queue, breaker, workers)."""
        return {
            "accepting": self._accepting,
            "draining": self._draining,
            "paused": self.paused,
            "queue_depth": self.queue.depth,
            "inflight": len(self._inflight),
            "counters": dict(self.counters),
            "breaker": self.breaker.snapshot(),
            "breaker_transitions": list(self.breaker.transitions),
            "workers": (
                self.executor.live_workers() if self.executor is not None else []
            ),
            "autoscaler": (
                self.autoscaler.summary() if self.autoscaler is not None else None
            ),
        }

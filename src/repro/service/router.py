"""The service front door: route, coalesce, cache, survive crashes.

``ShardedService`` is the only service the harness builds — ``repro
serve``, ``burst``, ``replay``, chaos days and the benchmark all drive
it. By default it runs one shard with no result store and no
verification; ``shards``, ``store``, ``verify_rate`` and
``dlq_threshold`` switch the rest on. Every request's fate is decided
here, in one place:

1. **Identity first.** Every request is reduced to its simulation
   identity (:func:`~repro.service.identity.request_identity`, the run
   key of its run spec); building that spec is also what validates it,
   so a malformed request is refused here. Service noise — client,
   priority, deadline — never splits the cache.

2. **Store hit.** If the durable result store already holds the digest,
   the request is answered immediately at full fidelity, byte-identical
   to the simulation that produced the entry. Corrupt entries are
   quarantined and treated as misses (recover-don't-abort): bad bytes are
   never served. The store is the only cache of finished answers: shards
   keep none, so every request that misses it is simulated.

3. **Coalesce.** If the digest is already in flight, the request becomes
   a *waiter* on the in-flight leader — one simulation, many answers.
   A waiter whose own deadline lapses while coalesced is shed with a
   machine-readable reason; no waiter ever hangs.

4. **Lead.** Otherwise the request takes the digest's crash-safe lease
   (dead-PID-stamped leases are broken, mirroring the journal lock) and
   is dispatched to the digest's owning shard — an internal
   :class:`~repro.service.service.SimulationService` with its own
   admission queue, breaker, degradation ladder and supervised worker
   pool. Shards share no files: the result store belongs to the front
   door.

5. **Promote on failure.** A leader that dies — worker crash, timeout,
   stalled heartbeat, exhausted retries — answers its own requester with
   the shard's refusal, and the first waiter is *promoted* to a fresh
   leader on the same shard; remaining waiters re-coalesce on it. The
   lease stays with this process across promotions. If the lease is held
   by a *different* process (a second front-door sharing the store), the
   group waits for the remote leader's published result, breaking the
   lease and promoting locally the moment the remote holder's PID dies
   or its result fails to appear within ``REMOTE_WAIT_S``.

Every response a shard produces flows back through the front door, which
fans full-fidelity payloads out to the waiters and persists them in the
store — so the *second* replay of any recorded traffic is pure store
hits: zero re-simulations, byte-identical answers. The drift guard's
degradation rung, shadow verification and the dead-letter queue live
here too.

Telemetry has one schema: ``stats()["counters"]`` is the serving stack's
only flat counter map — the shards' counters summed, plus the front
door's, the result store's, the verifier's and the DLQ's as ``front_*``,
``store_*``, ``verify_*`` and ``dlq_*``. A component that is off reads
zero, so the key set never depends on configuration. The serve
protocol, the drift guard, behaviour profiles and chaos reports all read
this map.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from repro.harness.errors import (
    FAILURE_KINDS,
    OUTCOME_DEGRADED,
    OUTCOME_FAILED,
    OUTCOME_FULL,
)
from repro.harness.executor import POLL_INTERVAL_S
from repro.harness.runner import run_fields
from repro.service.dlq import DLQ_COUNTERS, DeadLetterQueue
from repro.service.identity import request_identity, shard_of
from repro.service.request import (
    SimRequest,
    SimResponse,
    TIER_FAST,
    TIER_FULL,
    TIER_NONE,
)
from repro.service.resultstore import STORE_COUNTERS, ResultStore
from repro.service.service import ServiceConfig, SimulationService
from repro.service.verify import (
    ShadowVerifier,
    VERIFY_COUNTERS,
    corrupt_payload,
    payload_digest,
)

#: Front-door counter names; ``stats()["counters"]`` carries them as ``front_*``.
FRONT_COUNTER_NAMES = (
    "submitted",
    "answered",
    "rejected",
    "store_hits",
    "coalesced_waiters",
    "shed_waiters",
    "waiter_refusals",
    "promotions",
    "remote_leaders",
    "simulations",
    "results_corrupted",
    "dlq_strikes",
    "dlq_refused",
)

#: Severity order for aggregating per-shard breaker states.
_BREAKER_SEVERITY = {"closed": 0, "half-open": 1, "open": 2}

#: Seconds a group waits on another process's leader before promoting.
REMOTE_WAIT_S = 30.0


@dataclass
class _Waiter:
    """One request coalesced onto an in-flight leader."""

    request: SimRequest
    enqueued_at: float
    expires_at: Optional[float]


@dataclass
class _Group:
    """All in-flight interest in one simulation digest.

    ``leader_rid`` is the request_id currently leading the simulation on
    ``shard``; None means the lease is held by another process (remote
    leader) and the whole group is waiting on the store.
    """

    digest: str
    shard: int
    leader_rid: Optional[str]
    leader: Optional[SimRequest]
    created_at: float
    waiters: List[_Waiter] = field(default_factory=list)
    promotions: int = 0


class ShardedService:
    """The front door: coalescing, store-backed routing over N shards."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        shards: int = 1,
        store: Union[ResultStore, str, Path, None] = None,
        full_runner: Optional[Callable[[SimRequest], dict]] = None,
        fast_runner: Optional[Callable[[SimRequest], dict]] = None,
        clock: Callable[[], float] = time.monotonic,
        verify_rate: float = 0.0,
        verify_seed: Optional[int] = None,
        dlq_threshold: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if dlq_threshold < 0:
            raise ValueError("dlq_threshold must be >= 0")
        self.config = config or ServiceConfig()
        self.clock = clock
        self.store: Optional[ResultStore] = None
        if isinstance(store, ResultStore):
            self.store = store
        elif store is not None:
            self.store = ResultStore(store)
        self.shards: List[SimulationService] = [
            SimulationService(
                replace(self.config, shard_id=i),
                full_runner=full_runner,
                fast_runner=fast_runner,
                clock=clock,
            )
            for i in range(shards)
        ]
        self.counters: Dict[str, int] = {n: 0 for n in FRONT_COUNTER_NAMES}
        self._groups: Dict[str, _Group] = {}
        self._leader_rid: Dict[str, str] = {}  # leader request_id -> digest
        #: request_ids of leaders and coalesced waiters, until answered.
        self._owed: Set[str] = set()
        self._completed: List[SimResponse] = []
        self._accepting = True
        self._draining = False
        self._paused = False
        # Behaviour observability, set by the harness (this module never
        # imports repro.behavior): an optional rolling drift guard, fed the
        # counter map once per pump — while it holds sustained-drift
        # pressure, degradable requests that miss the store are answered
        # by their shard's fast tier.
        self.drift_guard = None
        plan = self.config.fault_plan
        plan_seed = plan.seed if plan is not None else 0
        # Silent-corruption injection (chaos campaigns): a seeded draw per
        # full-fidelity result crossing the front door flips one mantissa
        # bit before the payload is served and stored. The injector keeps
        # a private ledger of tainted digests so verification_audit() can
        # prove every event was later caught — the serving path itself
        # never sees the ledger (that would not be *silent*).
        self._corrupt_rate = (
            plan.service_corrupt_result_rate if plan is not None else 0.0
        )
        self._corrupt_rng = random.Random(f"corrupt-result:{plan_seed}")
        self._tainted: Dict[str, str] = {}  # digest -> corrupt payload sha
        self.verifier: Optional[ShadowVerifier] = None
        if verify_rate > 0.0:
            self.verifier = ShadowVerifier(
                rate=verify_rate,
                seed=verify_seed if verify_seed is not None else plan_seed,
                shards=shards,
                store=self.store,
                dispatch=lambda index, probe: self.shards[index].submit(probe),
            )
        self.dlq_threshold = int(dlq_threshold)
        self.dlq: Optional[DeadLetterQueue] = None
        if self.dlq_threshold > 0:
            self.dlq = DeadLetterQueue(
                self.store.root / "dlq" if self.store is not None else None
            )
        self._strikes: Dict[str, List[dict]] = {}  # digest -> strike history
        if self.store is not None:
            # A predecessor that crashed mid-simulation left its leases
            # behind; break them now (dead/unstamped holders only) rather
            # than stalling their digests behind the remote-wait timeout.
            self.store.break_stale_leases()


    # -- pause and load gauges -----------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def paused(self) -> bool:
        return self._paused

    @paused.setter
    def paused(self, value: bool) -> None:
        self._paused = value
        for shard in self.shards:
            shard.paused = value

    @property
    def inflight(self) -> int:
        """Unanswered work anywhere behind the door (shards + groups)."""
        return sum(s.inflight for s in self.shards) + len(self._groups)

    @property
    def pending(self) -> int:
        """Queued + in-flight + coalesced work still owing a response
        (plus verification probes the pump must still resolve)."""
        return (
            sum(s.pending for s in self.shards)
            + len(self._groups)
            + (self.verifier.inflight if self.verifier is not None else 0)
        )

    # -- admission -----------------------------------------------------------
    def submit(self, request: SimRequest) -> Optional[SimResponse]:
        """Offer one request: store hit, coalesce, or lead a simulation.

        An immediate disposition returns its response (also appended to
        the completed stream, the single source of truth for conservation
        accounting); an admitted request returns None and answers later
        through :meth:`take_completed`.
        """
        now = self.clock()
        self.counters["submitted"] += 1
        if not self._accepting:
            return self._refuse(request, "draining")
        rid = request.request_id
        if rid in self._owed or (self.verifier is not None and self.verifier.owns(rid)):
            # Live work is keyed by request_id (leaders, shard queues,
            # probes): a second live request under one id
            # would take over the first one's answer.
            return self._refuse(request, "duplicate-request-id")
        try:
            digest = request_identity(request)  # builds the run spec: validates
        except (TypeError, ValueError) as exc:
            return self._refuse(request, f"invalid-request: {exc}")
        if self.dlq is not None and self.dlq.is_parked(digest):
            # A parked poison pill: answer with the machine-readable
            # refusal instead of burning another worker (or hanging a
            # coalesced waiter behind an identity that never completes).
            self.counters["dlq_refused"] += 1
            return self._refuse(request, self.dlq.refusal_reason(digest))
        if self.store is not None:
            payload = self.store.get(digest)
            if payload is not None:
                self.counters["store_hits"] += 1
                return self._respond(
                    SimResponse(
                        request_id=request.request_id,
                        client=request.client,
                        outcome=OUTCOME_FULL,
                        tier=TIER_FULL,
                        payload=payload,
                        attempts=0,
                        wait_s=0.0,
                    )
                )
        if (
            request.degradable
            and self.drift_guard is not None
            and self.drift_guard.degrade_active
        ):
            # Ladder rung 2.5, between a shard's breaker-open and
            # queue-pressure rungs: the drift guard holds sustained-drift
            # pressure — behaviour has departed the baseline — so the
            # owning shard's fast tier answers now. The guard watches this
            # front door, not the shards, so the rung is applied here.
            shard = self.shards[shard_of(digest, len(self.shards))]
            return self._respond(shard.serve_degraded(request, "drift-guard"))
        self._owed.add(rid)
        group = self._groups.get(digest)
        if group is not None:
            self.counters["coalesced_waiters"] += 1
            group.waiters.append(_Waiter(request, now, self._expiry(request, now)))
            return None
        self._lead(request, digest, now)
        return None

    @staticmethod
    def _expiry(request: SimRequest, now: float) -> Optional[float]:
        return now + request.deadline_s if request.deadline_s is not None else None

    def _lead(self, request: SimRequest, digest: str, now: float) -> None:
        """Install ``request`` as the digest's leader (or remote waiter)."""
        shard_index = shard_of(digest, len(self.shards))
        if self.store is not None and not self.store.acquire_lease(digest):
            # Another process simulates this digest right now; wait for
            # its published result instead of duplicating the work.
            self.counters["remote_leaders"] += 1
            group = _Group(digest, shard_index, None, None, now)
            group.waiters.append(_Waiter(request, now, self._expiry(request, now)))
            self._groups[digest] = group
            return
        self._groups[digest] = _Group(
            digest, shard_index, request.request_id, request, now
        )
        self._leader_rid[request.request_id] = digest
        self._dispatch(shard_index, request)

    def _dispatch(self, shard_index: int, request: SimRequest) -> None:
        """Hand a leader to its shard; count a simulation only when the
        shard admits it to the full tier. An immediate shard disposition
        (rejected / degraded) lands in the shard's completed stream and
        resolves the group on the next pump — one code path for every
        outcome."""
        if self.shards[shard_index].submit(request) is None:
            self.counters["simulations"] += 1

    # -- the pump ------------------------------------------------------------
    def pump(self) -> int:
        """One dispatch iteration across all shards; returns responses
        produced (leader answers fanned out, waiters shed, remote results
        collected)."""
        produced = len(self._completed)
        for shard in self.shards:
            shard.pump()
        self._collect(self.clock())
        now = self.clock()
        self._sweep_waiters(now)
        self._poll_remote(now)
        if self.drift_guard is not None:
            self.drift_guard.observe(now, self._counters())
        return len(self._completed) - produced

    def _collect(self, now: float) -> None:
        for shard in self.shards:
            for response in shard.take_completed():
                self._route_response(response, now)

    def _route_response(self, response: SimResponse, now: float) -> None:
        if self.verifier is not None and self.verifier.owns(response.request_id):
            # Internal re-execution probe: consumed by the verifier, never
            # surfaced — invisible to the request-conservation contract.
            self.verifier.on_response(response)
            return
        digest = self._leader_rid.pop(response.request_id, None)
        group = self._groups.get(digest) if digest is not None else None
        if group is None or group.leader_rid != response.request_id:
            self._respond(response)  # not a live leader: pass through
            return
        self._on_leader_response(group, response, now)

    def _on_leader_response(
        self, group: _Group, response: SimResponse, now: float
    ) -> None:
        digest = group.digest
        if response.outcome == OUTCOME_FULL and response.payload is not None:
            payload = response.payload
            if (
                self._corrupt_rate > 0.0
                and self._accepting
                and self._corrupt_rng.random() < self._corrupt_rate
            ):
                # Injected silent corruption: the result crossing from the
                # compute tier to the serving tier is altered *after* the
                # shard answered with the clean value — the store, the
                # requester and every coalesced waiter all see the lie.
                bad = corrupt_payload(payload, self._corrupt_rng)
                if bad is not None:
                    payload = bad
                    self.counters["results_corrupted"] += 1
                    self._tainted[digest] = payload_digest(bad)
                    response = replace(response, payload=payload)
            if self.store is not None and group.leader is not None:
                self.store.put(run_fields(group.leader.run_spec()), payload)
                self.store.release_lease(digest)
            del self._groups[digest]
            self._respond(response)
            for w in group.waiters:
                self._respond(
                    SimResponse(
                        request_id=w.request.request_id,
                        client=w.request.client,
                        outcome=OUTCOME_FULL,
                        tier=TIER_FULL,
                        payload=payload,
                        attempts=response.attempts,
                        wait_s=now - w.enqueued_at,
                    )
                )
            if (
                self.verifier is not None
                and group.leader is not None
                and self.verifier.wants(digest)
            ):
                self.verifier.start(digest, group.leader, payload, group.shard)
            return
        self._respond(response)  # the leader's own (non-full) answer
        parked = self._note_strike(group, response)
        if response.outcome == OUTCOME_DEGRADED and response.payload is not None:
            # The shard chose the degradation ladder for this simulation;
            # a promotion storm would re-run the very pressure that caused
            # it. Waiters share the degraded answer, explicitly marked.
            self._dissolve(group)
            for w in group.waiters:
                self._respond(
                    SimResponse(
                        request_id=w.request.request_id,
                        client=w.request.client,
                        outcome=OUTCOME_DEGRADED,
                        tier=TIER_FAST,
                        degraded=True,
                        reason=f"coalesced:{response.reason}",
                        payload=response.payload,
                        attempts=response.attempts,
                        wait_s=now - w.enqueued_at,
                    )
                )
            return
        if parked:
            # The strike that crossed the DLQ threshold: stop feeding this
            # identity workers. Current waiters get the machine-readable
            # refusal now; future submissions are refused at the door.
            self._dissolve(group)
            for w in group.waiters:
                self.counters["waiter_refusals"] += 1
                self._respond(
                    SimResponse(
                        request_id=w.request.request_id,
                        client=w.request.client,
                        outcome="failed",
                        tier=TIER_NONE,
                        reason=f"coalesced:{self.dlq.refusal_reason(group.digest)}",
                        wait_s=now - w.enqueued_at,
                    )
                )
            return
        # The leader died or was refused (crash / timeout / stalled /
        # rejected / shed / failed): promote a follower so the group gets
        # another chance at a real answer. The lease stays with us.
        if group.waiters and not self._draining:
            promoted = group.waiters.pop(0)
            group.promotions += 1
            self.counters["promotions"] += 1
            if response.outcome == OUTCOME_FAILED and len(self.shards) > 1:
                # The full engine died on this shard; try the follower on
                # the next one. If the identity itself is poison it will
                # fail *there too* — exactly the cross-shard evidence the
                # DLQ needs to rule out a sick host.
                group.shard = (group.shard + 1) % len(self.shards)
            group.leader_rid = promoted.request.request_id
            group.leader = promoted.request
            self._leader_rid[promoted.request.request_id] = group.digest
            self._dispatch(group.shard, promoted.request)
            return
        self._dissolve(group)
        for w in group.waiters:  # draining: refuse, never hang
            self._refuse_waiter(w, response, now)

    # -- poison-pill accounting ----------------------------------------------
    @staticmethod
    def _failure_kind(response: SimResponse) -> Optional[str]:
        """Extract the engine-failure kind a leader response evidences.

        A ``failed`` leader carries ``"<kind>: <detail>"`` (or bare kind)
        from the shard's failure path; a ``degraded`` leader whose reason
        is ``full-tier-failed:<kind>`` means the full engine died and the
        ladder saved the answer — still a strike against the identity.
        Anything outside the FAILURE_KINDS taxonomy (admission rejections,
        deadline sheds, policy refusals) is not engine evidence.
        """
        kind: Optional[str] = None
        reason = response.reason or ""
        if response.outcome == OUTCOME_FAILED:
            kind = reason.split(":", 1)[0].strip()
        elif response.outcome == OUTCOME_DEGRADED and reason.startswith(
            "full-tier-failed:"
        ):
            kind = reason.split(":", 1)[1].strip()
        return kind if kind in FAILURE_KINDS else None

    def _note_strike(self, group: _Group, response: SimResponse) -> bool:
        """Record one engine-failure strike; park at threshold.

        Returns True when this strike parked the digest (the caller then
        refuses the group's waiters instead of promoting one).
        """
        kind = self._failure_kind(response)
        if kind is None:
            return False
        strikes = self._strikes.setdefault(group.digest, [])
        strikes.append(
            {
                "shard": group.shard,
                "request_id": response.request_id,
                "kind": kind,
                "reason": response.reason,
                "attempts": response.attempts,
            }
        )
        self.counters["dlq_strikes"] += 1
        if (
            self.dlq is None
            or len(strikes) < self.dlq_threshold
            or self.dlq.is_parked(group.digest)
            or group.leader is None
        ):
            return False
        # Enrich the strike history with the supervised executors' own
        # restart telemetry for these request_ids: the parked artifact
        # records not just "it failed" but each crash/hang as the worker
        # supervisor saw it.
        rids = {s["request_id"] for s in strikes}
        attempts = list(strikes)
        for shard in self.shards:
            if shard.executor is None:
                continue
            for f in shard.executor.failures_for(rids):
                attempts.append({"source": "executor", **f})
        self.dlq.park(
            group.digest, run_fields(group.leader.run_spec()), kind, attempts
        )
        return True

    def _dissolve(self, group: _Group) -> None:
        self._groups.pop(group.digest, None)
        if self.store is not None and group.leader is not None:
            self.store.release_lease(group.digest)

    def _refuse_waiter(
        self, waiter: _Waiter, leader_response: SimResponse, now: float
    ) -> None:
        """Mirror a failed leader's refusal onto one waiter, attributed."""
        self.counters["waiter_refusals"] += 1
        reason = leader_response.reason or leader_response.outcome
        self._respond(
            SimResponse(
                request_id=waiter.request.request_id,
                client=waiter.request.client,
                outcome=leader_response.outcome,
                tier=TIER_NONE,
                reason=f"coalesced:{reason}",
                wait_s=now - waiter.enqueued_at,
            )
        )

    def _sweep_waiters(self, now: float) -> None:
        """Shed coalesced waiters whose own deadlines lapsed."""
        for group in self._groups.values():
            if not group.waiters:
                continue
            still: List[_Waiter] = []
            for w in group.waiters:
                if w.expires_at is not None and now >= w.expires_at:
                    self.counters["shed_waiters"] += 1
                    self._respond(
                        SimResponse(
                            request_id=w.request.request_id,
                            client=w.request.client,
                            outcome="shed",
                            tier=TIER_NONE,
                            reason="deadline-expired",
                            wait_s=now - w.enqueued_at,
                        )
                    )
                else:
                    still.append(w)
            group.waiters = still

    def _poll_remote(self, now: float) -> None:
        """Progress groups whose lease is held by another process."""
        if self.store is None:
            return
        for digest in list(self._groups):
            group = self._groups.get(digest)
            if group is None or group.leader_rid is not None:
                continue
            payload = self.store.get(digest)
            if payload is not None:
                del self._groups[digest]
                for w in group.waiters:
                    self.counters["store_hits"] += 1
                    self._respond(
                        SimResponse(
                            request_id=w.request.request_id,
                            client=w.request.client,
                            outcome=OUTCOME_FULL,
                            tier=TIER_FULL,
                            payload=payload,
                            attempts=0,
                            wait_s=now - w.enqueued_at,
                        )
                    )
                continue
            stalled = now - group.created_at > REMOTE_WAIT_S
            if not (self.store.lease_stale(digest) or stalled):
                continue  # remote leader still alive and within budget
            # Dead or stalled remote leader: break its lease and promote
            # the first local waiter to lead a fresh simulation here.
            self.store.break_lease(digest)
            del self._groups[digest]
            if not group.waiters:
                continue
            promoted = group.waiters.pop(0)
            self.counters["promotions"] += 1
            self._lead(promoted.request, digest, now)
            fresh = self._groups.get(digest)
            if fresh is not None:
                fresh.waiters.extend(group.waiters)
            else:  # promotion lost a lease race it cannot win twice
                for w in group.waiters:
                    self.counters["waiter_refusals"] += 1
                    self._respond(
                        SimResponse(
                            request_id=w.request.request_id,
                            client=w.request.client,
                            outcome="failed",
                            tier=TIER_NONE,
                            reason="coalesced:lease-unavailable",
                            wait_s=now - w.enqueued_at,
                        )
                    )

    # -- response plumbing ---------------------------------------------------
    def _respond(self, response: SimResponse) -> SimResponse:
        """Answer a client; the answer frees its request_id."""
        self.counters["answered"] += 1
        self._owed.discard(response.request_id)
        self._completed.append(response)
        return response

    def _refuse(self, request: SimRequest, reason: str) -> SimResponse:
        """Refuse a submit. A refused request was never owed an answer, and
        a duplicate's id still belongs to the original, so no id is freed."""
        self.counters["rejected"] += 1
        self.counters["answered"] += 1
        response = SimResponse(
            request_id=request.request_id,
            client=request.client,
            outcome="rejected",
            tier=TIER_NONE,
            reason=reason,
        )
        self._completed.append(response)
        return response

    def take_completed(self) -> List[SimResponse]:
        """Drain and return responses produced since the last call."""
        out, self._completed = self._completed, []
        return out

    def run_until_idle(self, timeout_s: Optional[float] = None) -> None:
        """Pump until nothing is queued, in flight, or coalesced."""
        deadline = self.clock() + timeout_s if timeout_s is not None else None
        while self.pending > 0:
            self.pump()
            if deadline is not None and self.clock() > deadline:
                raise TimeoutError(
                    f"sharded service not idle within {timeout_s:g}s "
                    f"(pending={self.pending})"
                )
            if self.config.workers > 0 and self.pending > 0:
                time.sleep(POLL_INTERVAL_S)

    # -- drain ---------------------------------------------------------------
    def drain(self, deadline_s: Optional[float] = None) -> dict:
        """Stop admission and wind down every shard; answer everything.

        Normal pumping gets the budget first; past it each shard's own
        drain answers its in-flight and queued work (degraded / failed /
        shed, all with reasons), those leader responses fan out through
        the front door, and any still-unresolved coalesced waiters — e.g.
        groups parked on a remote leader — are refused with a
        machine-readable reason. No waiter is ever left hanging.
        """
        self._accepting = False
        self._draining = True
        self.paused = False
        budget = deadline_s if deadline_s is not None else self.config.drain_deadline_s
        deadline = self.clock() + budget
        while self.pending > 0 and self.clock() < deadline:
            self.pump()
            if self.config.workers > 0 and self.pending > 0:
                time.sleep(POLL_INTERVAL_S)
        for shard in self.shards:
            shard.drain(max(0.0, deadline - self.clock()))
        self._collect(self.clock())
        if self.verifier is not None:
            # Shadow probes dispatched into now-draining shards come back
            # as refusals; give the pump a few rounds to collect them,
            # then count whatever never answered as inconclusive — drain
            # must not hang on verification.
            for _ in range(3):
                if self.verifier.inflight == 0:
                    break
                for shard in self.shards:
                    shard.pump()
                self._collect(self.clock())
            if self.verifier.inflight:
                self.verifier.abandon_all()
        now = self.clock()
        for digest in list(self._groups):
            group = self._groups.pop(digest)
            if self.store is not None and group.leader is not None:
                self.store.release_lease(digest)
            for w in group.waiters:
                self.counters["waiter_refusals"] += 1
                self._respond(
                    SimResponse(
                        request_id=w.request.request_id,
                        client=w.request.client,
                        outcome="shed",
                        tier=TIER_NONE,
                        reason="drain-coalesced",
                        wait_s=now - w.enqueued_at,
                    )
                )
        self._leader_rid.clear()
        return self.stats()

    # -- observability -------------------------------------------------------
    def _counters(self) -> Dict[str, int]:
        """The one flat counter map: shard counters summed, then the front
        door's, store's, verifier's and DLQ's under their prefixes (zero
        for a component that is off)."""
        counters: Dict[str, int] = {}
        for shard in self.shards:
            for k, v in shard.counters.items():
                counters[k] = counters.get(k, 0) + v
        for prefix, owner, names in (
            ("front", self, FRONT_COUNTER_NAMES),
            ("store", self.store, STORE_COUNTERS),
            ("verify", self.verifier, VERIFY_COUNTERS),
            ("dlq", self.dlq, DLQ_COUNTERS),
        ):
            for name in names:
                counters[f"{prefix}_{name}"] = (
                    owner.counters[name] if owner is not None else 0
                )
        return counters

    def stats(self) -> dict:
        """Aggregated telemetry: the counter map plus per-shard views.

        Carries every key a shard's own ``stats()`` has: ``counters`` is
        the one flat map (see the module docstring), ``breaker`` is the
        worst shard's snapshot, ``workers`` and the autoscaler's
        ``events`` merge every shard's (events in time order, each tagged
        with its shard), and ``miss_rate_window`` is the worst shard's.
        """
        shard_stats = [s.stats() for s in self.shards]
        transitions: List[dict] = []
        workers: List[dict] = []
        for ss in shard_stats:
            transitions.extend(ss["breaker_transitions"])
            workers.extend(ss["workers"])
        scalers = [(i, ss["autoscaler"]) for i, ss in enumerate(shard_stats)
                   if ss["autoscaler"]]
        autoscaler = None
        if scalers:
            autoscaler = {
                k: sum(a[k] for _, a in scalers)
                for k in ("target", "min_workers", "max_workers",
                          "scale_ups", "scale_downs")
            }
            autoscaler["miss_rate_window"] = max(
                a["miss_rate_window"] for _, a in scalers
            )
            autoscaler["events"] = sorted(
                ({**e, "shard": i} for i, a in scalers for e in a["events"]),
                key=lambda e: e["at_s"],
            )
        return {
            "accepting": self._accepting,
            "draining": self._draining,
            "paused": self._paused,
            "shards": shard_stats,
            "queue_depth": sum(ss["queue_depth"] for ss in shard_stats),
            "inflight": self.inflight,
            "coalesced_groups": len(self._groups),
            "counters": self._counters(),
            "breaker": max(
                (ss["breaker"] for ss in shard_stats),
                key=lambda b: _BREAKER_SEVERITY[b["state"]],
            ),
            "breaker_transitions": transitions,
            "workers": workers,
            "autoscaler": autoscaler,
            "drift_guard": (
                self.drift_guard.summary() if self.drift_guard is not None else None
            ),
        }

    def verification_audit(self) -> dict:
        """Did the integrity layer catch every injected corruption?

        Compares the injector's private tainted-digest ledger against what
        the store still serves: a digest whose live payload hashes to the
        corrupt sha it was tainted with is an **uncaught** silent
        corruption. A tainted digest is **neutralized** when the store no
        longer serves the corrupt bytes — either *caught* (proven
        divergent, quarantined into evidence) or fail-safe evicted (its
        shadow could not answer, so the entry was dropped rather than
        trusted). Chaos-day's contract folds ``ok`` in, so a campaign with
        corruption injected only passes when every event was neutralized
        and no divergent-marked entry survives.
        """
        uncaught: List[str] = []
        if self.store is not None:
            for digest, bad_sha in sorted(self._tainted.items()):
                live = self.store.peek(digest)
                if live is not None and payload_digest(live) == bad_sha:
                    uncaught.append(digest)
        integ = (
            self.store.integrity_summary() if self.store is not None else {}
        )
        live_divergent = integ.get("divergent_live", 0) + integ.get("invalid", 0)
        dlq_ok = True
        dlq_view: Optional[dict] = None
        if self.dlq is not None:
            # Every in-session park must still be visible (and refusable).
            parked = self.dlq.counters["parked"]
            dlq_ok = len(self.dlq) >= parked
            dlq_view = {
                "ok": dlq_ok,
                "parked": len(self.dlq),
                "parked_this_run": parked,
                "refused": self.counters["dlq_refused"],
            }
        return {
            "ok": not uncaught and live_divergent == 0 and dlq_ok,
            "caught": (
                len(self.verifier.quarantined) if self.verifier is not None else 0
            ),
            "uncaught": uncaught,
            "tainted_digests": len(self._tainted),
            "neutralized": len(self._tainted) - len(uncaught),
            "live_divergent": live_divergent,
            "integrity": integ,
            "dlq": dlq_view,
        }

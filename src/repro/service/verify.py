"""Shadow verification: catch silently wrong answers before they spread.

The paper's scheduling decisions are pure functions of per-quantum counter
values, and the fault families of ``repro.faults`` show those values can be
*silently* wrong — no crash, no bad checksum, just a different number. The
serving stack amplifies exactly that failure: one corrupted full-fidelity
result lands in the content-addressed :class:`~repro.service.resultstore.
ResultStore` and is then replayed verbatim to every future request with the
same identity. Checksums cannot help; the bytes are faithfully the wrong
answer.

The defense is re-execution. A :class:`ShadowVerifier` samples completed
full-fidelity results (seeded per-digest draw, so the sample is a
deterministic function of ``(seed, identity)`` and independent of arrival
order) and re-runs each sampled request on a *different* shard's worker.
The two payload summary digests are compared:

* **match** — the store entry is promoted ``unverified`` → ``verified``;
* **divergence** — both results are quarantined into a ``*.divergent``
  evidence document, the live store entry is evicted (a future request
  re-simulates rather than trusting either copy), and a third,
  *authoritative* re-execution decides best-2-of-3: whichever of the two
  originals it reproduces is re-stored as ``verified``; if it matches
  neither, the digest stays evicted and is counted ``unresolved``.

A shadow that cannot answer at full fidelity (shed under load, refused
while draining) is ``inconclusive`` — never grounds for quarantine: the
verifier must have a zero false-positive rate on healthy systems (see
``tests/test_verify.py``'s property suite).

The verifier never submits through the front door (that would hit the very
store entry under suspicion); it dispatches straight to a shard, which
keeps no cache of answers, so every probe is a real re-execution. Its
responses are consumed internally — they are invisible to the request
conservation contract.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import struct
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.harness.errors import OUTCOME_FULL
from repro.harness.runner import run_fields
from repro.service.request import SimRequest, SimResponse
from repro.service.resultstore import (
    INTEGRITY_VERIFIED,
    ResultStore,
)

log = logging.getLogger("repro.verify")

#: Stable counter names of :attr:`ShadowVerifier.counters`; the front
#: door's counter map carries them as ``verify_*``.
VERIFY_COUNTERS = (
    "sampled",
    "verified",
    "divergent",
    "inconclusive",
    "restored",
    "unresolved",
)

#: Phases of one verification job.
_PHASE_SHADOW = "shadow"
_PHASE_AUTHORITY = "authority"


def payload_digest(payload: dict) -> str:
    """SHA-256 of a result payload's canonical JSON — the summary digest
    two executions of the same identity are compared by. Deterministic
    engines make this digest a function of the request identity alone, so
    any difference between two runs is a wrong answer, not noise."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def corrupt_payload(payload: dict, rng: random.Random) -> Optional[dict]:
    """Flip one mantissa bit of the first finite numeric field (sorted key
    order — deterministic under a seeded ``rng``): the injected
    silent-corruption event. Exponent bits are left alone so the corrupted
    value stays finite — plausible, parseable, checksummable, wrong.
    Returns None when the payload has nothing numeric to corrupt."""
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not math.isfinite(value):
            continue
        bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        bits ^= 1 << rng.randrange(0, 52)
        corrupted = dict(payload)
        corrupted[key] = struct.unpack("<d", struct.pack("<Q", bits))[0]
        return corrupted
    return None


@dataclass
class _VerifyJob:
    """One sampled digest's verification state across its phases."""

    digest: str
    request: SimRequest  # the leader request the result answered
    home_shard: int
    primary_payload: dict
    primary_sha: str
    phase: str = _PHASE_SHADOW
    shadow_payload: Optional[dict] = None
    shadow_sha: Optional[str] = None


class ShadowVerifier:
    """Seeded sampling re-executor over the sharded service's results.

    ``dispatch(shard_index, request)`` submits a verification request
    directly to one shard (bypassing the front door's store/coalescing so
    the re-execution is genuinely independent); the owning router feeds
    every response whose request_id this verifier :meth:`owns` back into
    :meth:`on_response` and drops it from the public response stream.
    """

    def __init__(
        self,
        *,
        rate: float,
        seed: int = 0,
        shards: int = 1,
        dispatch: Callable[[int, SimRequest], Optional[SimResponse]],
        store: Optional[ResultStore] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"verify rate {rate!r}: must be in [0, 1]")
        self.rate = float(rate)
        self.seed = int(seed)
        self.shards = max(1, int(shards))
        self.dispatch = dispatch
        self.store = store
        self.counters: Dict[str, int] = {n: 0 for n in VERIFY_COUNTERS}
        self.quarantined: List[str] = []  # digests, in divergence order
        self._jobs: Dict[str, _VerifyJob] = {}  # verify request_id -> job
        self._spawned = 0

    # -- sampling ------------------------------------------------------------
    def wants(self, digest: str) -> bool:
        """The seeded per-digest sample draw. Keyed by (seed, digest), not
        by a shared stream, so the same digests verify no matter how many
        results raced past in between — reports stay reproducible."""
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return random.Random(f"verify:{self.seed}:{digest}").random() < self.rate

    def owns(self, request_id: str) -> bool:
        """Whether a response belongs to this verifier (and must not be
        surfaced as a client answer)."""
        return request_id in self._jobs

    @property
    def inflight(self) -> int:
        return len(self._jobs)

    # -- lifecycle -----------------------------------------------------------
    def start(
        self, digest: str, request: SimRequest, payload: dict, home_shard: int
    ) -> None:
        """Begin verifying ``digest``: shadow re-execution on the next
        shard over. Call only after :meth:`wants` said yes."""
        self.counters["sampled"] += 1
        job = _VerifyJob(
            digest=digest,
            request=request,
            home_shard=home_shard,
            primary_payload=payload,
            primary_sha=payload_digest(payload),
        )
        self._submit(job, (home_shard + 1) % self.shards)

    def _submit(self, job: _VerifyJob, shard_index: int) -> None:
        self._spawned += 1
        rid = f"verify-{job.phase}-{job.digest[:12]}-{self._spawned}"
        probe = replace(
            job.request,
            request_id=rid,
            client="__verify__",
            degradable=False,  # a fast-model answer would always "diverge"
            deadline_s=None,
        )
        self._jobs[rid] = job
        self.dispatch(shard_index, probe)

    def on_response(self, response: SimResponse) -> None:
        """Consume one verification response (shadow or authority)."""
        job = self._jobs.pop(response.request_id, None)
        if job is None:  # pragma: no cover — router checks owns() first
            return
        if job.phase == _PHASE_SHADOW:
            self._finish_shadow(job, response)
        else:
            self._finish_authority(job, response)

    def _finish_shadow(self, job: _VerifyJob, response: SimResponse) -> None:
        if response.outcome != OUTCOME_FULL or response.payload is None:
            # Shed / refused / degraded shadow: no second opinion was
            # obtained. Never quarantine on a non-answer — but fail safe:
            # a sampled entry stays servable only if its verdict lands,
            # so evict it and let the next request re-simulate. On a
            # healthy system this can only fire while draining, and
            # costs one future re-simulation, never a wrong refusal.
            self.counters["inconclusive"] += 1
            if self.store is not None:
                self.store.evict(job.digest)
            return
        sha = payload_digest(response.payload)
        if sha == job.primary_sha:
            self.counters["verified"] += 1
            if self.store is not None:
                self.store.mark_verified(job.digest)
            return
        # Divergence: two full-fidelity executions of one identity
        # disagree. Quarantine both, evict the live entry, and let a third
        # execution arbitrate.
        self.counters["divergent"] += 1
        self.quarantined.append(job.digest)
        log.warning(
            "%s: shadow divergence (primary %s… vs shadow %s…); "
            "entry evicted, re-running authoritatively",
            job.digest[:12], job.primary_sha[:12], sha[:12],
        )
        if self.store is not None:
            self.store.quarantine_divergent(
                run_fields(job.request.run_spec()),
                primary_payload=job.primary_payload,
                shadow_payload=response.payload,
                detail=f"primary {job.primary_sha} vs shadow {sha}",
            )
        job.phase = _PHASE_AUTHORITY
        job.shadow_payload = response.payload
        job.shadow_sha = sha
        self._submit(job, (job.home_shard + 2) % self.shards)

    def _finish_authority(self, job: _VerifyJob, response: SimResponse) -> None:
        if response.outcome != OUTCOME_FULL or response.payload is None:
            self.counters["unresolved"] += 1
            return
        sha = payload_digest(response.payload)
        if sha == job.shadow_sha:
            winner: Optional[dict] = job.shadow_payload
        elif sha == job.primary_sha:
            winner = job.primary_payload
        else:
            # Three executions, three answers: nothing is trustworthy.
            # The digest stays evicted; the next real request re-simulates.
            self.counters["unresolved"] += 1
            log.warning(
                "%s: best-2-of-3 unresolved (three distinct results); "
                "digest stays evicted", job.digest[:12],
            )
            return
        self.counters["restored"] += 1
        if self.store is not None and winner is not None:
            self.store.put(
                run_fields(job.request.run_spec()),
                winner,
                integrity=INTEGRITY_VERIFIED,
            )

    def abandon_all(self) -> int:
        """Give up on every in-flight probe (drain deadline reached).

        Pending shadows become ``inconclusive`` (no second opinion was
        obtained — never a quarantine); pending authorities become
        ``unresolved`` (the digest is already evicted, which is the safe
        state). Returns how many jobs were abandoned.
        """
        abandoned = len(self._jobs)
        for job in self._jobs.values():
            if job.phase == _PHASE_SHADOW:
                self.counters["inconclusive"] += 1
            else:
                self.counters["unresolved"] += 1
        self._jobs.clear()
        return abandoned

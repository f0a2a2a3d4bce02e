"""Deterministic request identity: canonical fields → stable digest → shard.

The service front door (:mod:`repro.service.router`) and the
content-addressed result store (:mod:`repro.service.resultstore`) both key
on *what simulation a request asks for*, not on who asked or how urgently.
This module owns that identity, and it is the only one: the store is the
only place a finished answer is reused, so no second key can let two
different simulations share an answer.

* :func:`canonical_fields` projects a :class:`~repro.service.request.
  SimRequest` onto exactly the fields that determine the simulation's
  output, normalized so representational noise cannot split the cache —
  service-level fields (client, priority, deadline, degradability,
  request_id) are excluded; numeric fields are coerced (``2`` and ``2.0``
  digest identically); ``fault_kinds`` are sorted and deduplicated (the
  seeded injector draws per family, so order never matters); fields the
  selected mode ignores are dropped (a *fixed* run's heuristic/threshold,
  an *adts* run's starting policy); the fault plan is kept (a faulted
  request and its clean twin are different simulations); and a request
  with no fault kinds normalizes its ``fault_rate`` away.

* :func:`fields_digest` hashes the canonical JSON of those fields
  (sorted keys) with SHA-256. Because every simulation is
  seed-deterministic, equal digests imply byte-identical result payloads —
  which is what makes coalescing and cache hits *answers*, not guesses.

* :func:`shard_of` maps a digest onto one of N shards (leading 32 bits,
  mod N), so a given simulation is always owned by the same shard: its
  result-store segment never sees writes from two shards at once.
"""

from __future__ import annotations

import hashlib
import json

from repro.service.request import SimRequest

#: Bump when canonical_fields changes shape: stored results keyed under an
#: old scheme must re-simulate rather than mis-hit.
IDENTITY_SCHEME = 1


def canonical_fields(request: SimRequest) -> dict:
    """The simulation-identity projection of one request, normalized.

    Two requests with equal projections are asking for the same seeded
    simulation and may share one result; two with different projections
    must never share one.
    """
    mode = str(request.mode)
    fields = {
        "scheme": IDENTITY_SCHEME,
        "mix": str(request.mix),
        "mode": mode,
        "quanta": int(request.quanta),
        "warmup_quanta": int(request.warmup_quanta),
        "quantum_cycles": int(request.quantum_cycles),
        "num_threads": int(request.num_threads),
        "seed": int(request.seed),
    }
    if mode == "adts":
        # ADTS picks its own policies; the request's starting `policy`
        # field is inert.
        fields["scheduler"] = str(request.heuristic)
        fields["ipc_threshold"] = float(request.threshold)
    else:
        fields["scheduler"] = str(request.policy)
    kinds = sorted(set(str(k) for k in request.fault_kinds))
    if kinds:
        # Injected faults change the simulated outcome, so they are part
        # of identity — but only when any family is actually enabled.
        fields["fault_kinds"] = kinds
        fields["fault_rate"] = float(request.fault_rate)
    return fields


def fields_digest(fields: dict) -> str:
    """SHA-256 hex digest of the canonical JSON of ``fields``."""
    blob = json.dumps(fields, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def request_identity(request: SimRequest) -> str:
    """The stable content digest of the simulation ``request`` asks for."""
    return fields_digest(canonical_fields(request))


def shard_of(digest: str, shards: int) -> int:
    """Deterministic shard owning ``digest`` (0-based, stable across runs)."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return int(digest[:8], 16) % shards

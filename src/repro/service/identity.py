"""Deterministic request identity: the run a request asks for → digest → shard.

The service front door (:mod:`repro.service.router`) and the
content-addressed result store (:mod:`repro.service.resultstore`) both key
on *what simulation a request asks for*, not on who asked or how urgently.
That identity is the run's own: :func:`request_identity` is the
:func:`~repro.harness.runner.run_key` of the request's
:meth:`~repro.service.request.SimRequest.run_spec`, the digest of its
:func:`~repro.harness.runner.run_fields` projection. So a grid-journal cell
and the request asking for it share one key, and no second key can let two
different simulations share an answer.

* The projection drops everything the simulation does not depend on:
  service-level fields (client, priority, deadline, degradability,
  request_id) never reach the run spec; fields the run ignores (a *fixed*
  run's heuristic and threshold, an *adts* run's starting policy) are
  dropped; numbers are coerced (``2`` and ``2.0`` digest identically).
  ``fault_kinds`` become a fault plan, so their order and repeats never
  matter; the plan is part of identity only when a non-disk family is on
  (a faulted request and its clean twin are different simulations, while
  disk faults never change a result, so a disk-only request shares its
  clean twin's identity and stored answer).

* :func:`~repro.harness.runner.fields_digest` hashes the canonical JSON
  of those fields (sorted keys) with SHA-256. Because every simulation is
  seed-deterministic, equal digests imply byte-identical result payloads —
  which is what makes coalescing and cache hits *answers*, not guesses.

* :func:`shard_of` maps a digest onto one of N shards (leading 32 bits,
  mod N), so a given simulation is always owned by the same shard. The
  result store does not depend on it: the front door files every entry
  in one segment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.harness.runner import run_key

if TYPE_CHECKING:
    from repro.service.request import SimRequest


def request_identity(request: SimRequest) -> str:
    """The stable content digest of the simulation ``request`` asks for.

    Builds the request's run spec, so it validates too: a malformed
    request raises what :meth:`~repro.service.request.SimRequest.run_spec`
    raises (``ValueError`` or ``TypeError``).
    """
    return run_key(request.run_spec())


def shard_of(digest: str, shards: int) -> int:
    """Deterministic shard owning ``digest`` (0-based, stable across runs)."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return int(digest[:8], 16) % shards

"""Overload-safe simulation serving.

One front door, :class:`~repro.service.router.ShardedService`, is the
service every caller builds. It routes requests by deterministic identity
to its shards (one by default), coalesces identical in-flight requests
under crash-safe leases, and — when configured — serves repeats from a
content-addressed durable result store, shadow-verifies results and parks
poison pills in a dead-letter queue. Each shard is an internal
:class:`~repro.service.service.SimulationService` with bounded admission
(backpressure, per-client fairness, deadline shedding), a circuit breaker
over the full-fidelity worker pool, graceful degradation onto the
calibrated fast model (every degraded answer explicitly marked), and a
drain path that answers every accepted request before exit. See
``DESIGN.md`` §9/§13 and the module docstrings for the full story.
"""

from repro.service.admission import (
    AdmissionQueue,
    REASON_CLIENT_QUOTA,
    REASON_QUEUE_FULL,
)
from repro.service.breaker import (
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.service.autoscale import (
    Autoscaler,
    AutoscalerConfig,
    AutoscalingPool,
    ScaleEvent,
)
from repro.service.loadgen import (
    BurstSpec,
    TimedRequest,
    TrafficSpec,
    VirtualClock,
    breakdown,
    generate_burst,
    generate_traffic,
    load_recording,
    replay_realtime,
    replay_traffic,
    save_recording,
    traffic_fingerprint,
)
from repro.service.request import (
    QueueEntry,
    SimRequest,
    SimResponse,
    TIER_FAST,
    TIER_FULL,
    TIER_KINDS,
    TIER_NONE,
)
from repro.service.identity import (
    IDENTITY_SCHEME,
    canonical_fields,
    fields_digest,
    request_identity,
    shard_of,
)
from repro.service.dlq import DeadLetterQueue
from repro.service.resultstore import (
    INTEGRITY_UNVERIFIED,
    INTEGRITY_VERIFIED,
    ResultStore,
)
from repro.service.router import ShardedService
from repro.service.verify import (
    ShadowVerifier,
    VERIFY_COUNTERS,
    payload_digest,
)
from repro.service.server import ServeLoop
from repro.service.service import ServiceConfig

__all__ = [
    "AdmissionQueue",
    "Autoscaler",
    "AutoscalerConfig",
    "AutoscalingPool",
    "BurstSpec",
    "CircuitBreaker",
    "DeadLetterQueue",
    "IDENTITY_SCHEME",
    "INTEGRITY_UNVERIFIED",
    "INTEGRITY_VERIFIED",
    "QueueEntry",
    "ResultStore",
    "ShadowVerifier",
    "ShardedService",
    "VERIFY_COUNTERS",
    "REASON_CLIENT_QUOTA",
    "REASON_QUEUE_FULL",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "ScaleEvent",
    "ServeLoop",
    "ServiceConfig",
    "SimRequest",
    "SimResponse",
    "TIER_FAST",
    "TIER_FULL",
    "TIER_KINDS",
    "TIER_NONE",
    "TimedRequest",
    "TrafficSpec",
    "VirtualClock",
    "breakdown",
    "canonical_fields",
    "fields_digest",
    "generate_burst",
    "generate_traffic",
    "load_recording",
    "payload_digest",
    "replay_realtime",
    "replay_traffic",
    "request_identity",
    "save_recording",
    "shard_of",
    "traffic_fingerprint",
]

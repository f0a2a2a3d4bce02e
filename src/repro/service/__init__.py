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

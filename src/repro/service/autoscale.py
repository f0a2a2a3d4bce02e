"""Queue-driven worker autoscaling for the simulation service.

The SMT scheduling literature's lesson, lifted to the serving layer:
resource shares must track observed per-thread *pressure*, not a static
allocation. Here the "threads" are supervised worker processes and the
pressure signals are the ones the service already measures — admission
queue depth, deadline-miss (shed) rate over a sliding window, and the
circuit breaker's state.

:class:`Autoscaler` is the pure decision state machine. Fed one
observation per service pump (``observe``), it maintains a sliding
window, up/down pressure streaks (hysteresis: a single spike never
scales, only *sustained* pressure does), a cooldown between scale
events, and hard min/max bounds. It is clock-agnostic — ``now`` comes in
with each observation — so it is exactly as deterministic as its input
stream, which is what lets chaos-day campaigns under a virtual clock
reproduce their scale-event telemetry byte for byte.

Actuation is one assignment, made by the service shard
(:class:`~repro.service.service.SimulationService`) at construction and
after every ``observe``: the scaler's target becomes the
:class:`~repro.harness.executor.SupervisedExecutor`'s ``soft_cap``.
**Scale-down never kills a worker**: lowering the cap only stops new
spawns; in-flight attempts run to completion (or to the drain deadline,
where stragglers are killed and answered). A scale-down
therefore cannot strand an admitted request — the drain contract
survives autoscaling.

With ``workers=0`` (inline full tier) there is no pool to actuate; the
service instead uses the scaler's target as its per-pump dispatch budget,
so autoscaler behaviour is testable deterministically without processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, List, Optional, Tuple


#: Queue depth at or above which one observation counts as up-pressure.
UP_QUEUE_DEPTH = 8
#: Depth at or below which an observation counts as down-pressure (only
#: when no deadline was missed in the window).
DOWN_QUEUE_DEPTH = 1
#: Deadline-miss share (shed / answered over the window) that counts as
#: up-pressure regardless of depth.
MISS_RATE_THRESHOLD = 0.05
#: Observations kept in the sliding miss-rate window.
WINDOW = 16
#: Hysteresis: consecutive pressured observations required before acting.
#: A neutral observation resets both streaks, so an oscillating queue
#: (spike, empty, spike, empty) never flaps the pool.
UP_CONSECUTIVE = 2
DOWN_CONSECUTIVE = 6
#: Target delta per event. Scale-up takes the bigger step: adding
#: capacity late is worse than shedding it late.
STEP_UP = 2
STEP_DOWN = 1
#: Scale events retained in telemetry (totals are always exact; only the
#: event list is bounded).
MAX_EVENTS = 256


@dataclass(frozen=True)
class AutoscalerConfig:
    """Autoscaler bounds.

    Attributes:
        min_workers / max_workers: hard bounds on the worker target; the
            target starts at ``min_workers``.
        cooldown_s: minimum time between two scale events, in whichever
            clock feeds ``observe`` — a second anti-flap guard.
    """

    min_workers: int = 1
    max_workers: int = 8
    cooldown_s: float = 0.5

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")


@dataclass(frozen=True)
class ScaleEvent:
    """One committed change of the worker target."""

    at_s: float
    from_target: int
    to_target: int
    reason: str  # "queue-depth" | "deadline-misses" | "idle"

    def to_dict(self) -> dict:
        """JSON-serializable form for telemetry."""
        return asdict(self)


class Autoscaler:
    """Sliding-window, hysteresis-guarded worker-target state machine."""

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config or AutoscalerConfig()
        self.target = self.config.min_workers
        self.events: List[ScaleEvent] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self._up_streak = 0
        self._down_streak = 0
        self._last_event_at: Optional[float] = None
        # (shed_delta, answered_delta) per observation, for the miss rate.
        self._window: Deque[Tuple[int, int]] = deque(maxlen=WINDOW)

    # -- signal intake -------------------------------------------------------
    def observe(
        self,
        now: float,
        queue_depth: int,
        shed_delta: int = 0,
        answered_delta: int = 0,
        breaker_open: bool = False,
    ) -> int:
        """Feed one observation; returns the (possibly updated) target.

        ``shed_delta`` / ``answered_delta`` are the *increments* since the
        previous observation (the service computes them from its counters),
        so the window's miss rate covers exactly the last :data:`WINDOW`
        observations regardless of pump cadence.
        """
        self._window.append((max(0, shed_delta), max(0, answered_delta)))
        if breaker_open:
            # With the breaker open the full tier is presumed down: more
            # workers would only spawn more doomed attempts, so the scaler
            # freezes until the breaker recovers.
            self._up_streak = 0
            self._down_streak = 0
            return self.target
        miss_rate = self.miss_rate()
        if queue_depth >= UP_QUEUE_DEPTH or miss_rate >= MISS_RATE_THRESHOLD:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= UP_CONSECUTIVE:
                reason = (
                    "deadline-misses"
                    if miss_rate >= MISS_RATE_THRESHOLD
                    else "queue-depth"
                )
                self._scale(now, self.target + STEP_UP, reason)
        elif queue_depth <= DOWN_QUEUE_DEPTH and miss_rate == 0.0:
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= DOWN_CONSECUTIVE:
                self._scale(now, self.target - STEP_DOWN, "idle")
        else:
            # Neutral band: neither streak survives it (hysteresis).
            self._up_streak = 0
            self._down_streak = 0
        return self.target

    def miss_rate(self) -> float:
        """Deadline-miss share over the window: shed / (shed + answered)."""
        shed = sum(s for s, _ in self._window)
        answered = sum(a for _, a in self._window)
        total = shed + answered
        return (shed / total) if total else 0.0

    def _scale(self, now: float, desired: int, reason: str) -> None:
        cfg = self.config
        if (
            self._last_event_at is not None
            and now - self._last_event_at < cfg.cooldown_s
        ):
            return  # cooling down; streak stays primed for the next tick
        desired = max(cfg.min_workers, min(cfg.max_workers, desired))
        if desired == self.target:
            return  # already pinned at a bound
        event = ScaleEvent(
            at_s=now, from_target=self.target, to_target=desired, reason=reason
        )
        if desired > self.target:
            self.scale_ups += 1
        else:
            self.scale_downs += 1
        self.target = desired
        self.events.append(event)
        if len(self.events) > MAX_EVENTS:
            del self.events[: len(self.events) - MAX_EVENTS]
        self._last_event_at = now
        self._up_streak = 0
        self._down_streak = 0

    # -- telemetry -----------------------------------------------------------
    def summary(self) -> dict:
        """Scale-event telemetry for a shard's ``stats()``, which the front
        door merges across shards, and the chaos-campaign report."""
        return {
            "target": self.target,
            "min_workers": self.config.min_workers,
            "max_workers": self.config.max_workers,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "miss_rate_window": round(self.miss_rate(), 6),
            "events": [e.to_dict() for e in self.events],
        }

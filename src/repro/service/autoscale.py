"""Queue-driven worker autoscaling for the simulation service.

The SMT scheduling literature's lesson, lifted to the serving layer:
resource shares must track observed per-thread *pressure*, not a static
allocation. Here the "threads" are supervised worker processes and the
pressure signals are the ones the service already measures — admission
queue depth, deadline-miss (shed) rate over a sliding window, and the
circuit breaker's state.

Two pieces:

* :class:`Autoscaler` — the pure decision state machine. Fed one
  observation per service pump (``observe``), it maintains a sliding
  window, up/down pressure streaks (hysteresis: a single spike never
  scales, only *sustained* pressure does), a cooldown between scale
  events, and hard min/max bounds. It is clock-agnostic — ``now`` comes
  in with each observation — so it is exactly as deterministic as its
  input stream, which is what lets chaos-day campaigns under a virtual
  clock reproduce their scale-event telemetry byte for byte.

* :class:`AutoscalingPool` — the actuator: wraps a
  :class:`~repro.harness.executor.SupervisedExecutor` with the same
  streaming API the service already speaks, translating the scaler's
  target into the executor's ``soft_cap``. **Scale-down never kills a
  worker**: lowering the cap only stops new spawns; in-flight attempts
  run to completion (or to the drain deadline, where the existing
  checkpoint/kill machinery applies). A scale-down therefore cannot
  strand an admitted request — the drain contract survives autoscaling.

With ``workers=0`` (inline full tier) there is no pool to actuate; the
service instead uses the scaler's target as its per-pump dispatch budget,
so autoscaler behaviour is testable deterministically without processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, List, Optional, Tuple


@dataclass(frozen=True)
class AutoscalerConfig:
    """Autoscaler knobs.

    Attributes:
        min_workers / max_workers: hard bounds on the worker target.
        initial_workers: starting target (None = ``min_workers``).
        up_queue_depth: queue depth at/above which one observation counts
            as up-pressure.
        down_queue_depth: depth at/below which an observation counts as
            down-pressure (only when no deadline was missed in the
            window).
        miss_rate_threshold: deadline-miss share (shed / answered over
            the window) that counts as up-pressure regardless of depth.
        window: observations kept in the sliding miss-rate window.
        up_consecutive / down_consecutive: hysteresis — consecutive
            pressured observations required before acting. A neutral
            observation resets both streaks, so an oscillating queue
            (spike, empty, spike, empty) never flaps the pool.
        cooldown_s: minimum time between two scale events, in whichever
            clock feeds ``observe`` — a second anti-flap guard.
        step_up / step_down: target delta per event (scale-up defaults
            to a bigger step than scale-down: adding capacity late is
            worse than shedding it late).
        hold_open_breaker: with the circuit breaker open the full tier
            is presumed down — scaling up would only spawn more doomed
            attempts, so the scaler freezes until the breaker recovers.
        max_events: scale events retained in telemetry (totals are
            always exact; only the event list is bounded).
    """

    min_workers: int = 1
    max_workers: int = 8
    initial_workers: Optional[int] = None
    up_queue_depth: int = 8
    down_queue_depth: int = 1
    miss_rate_threshold: float = 0.05
    window: int = 16
    up_consecutive: int = 2
    down_consecutive: int = 6
    cooldown_s: float = 0.5
    step_up: int = 2
    step_down: int = 1
    hold_open_breaker: bool = True
    max_events: int = 256

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.initial_workers is not None and not (
            self.min_workers <= self.initial_workers <= self.max_workers
        ):
            raise ValueError("initial_workers must lie within [min, max]")
        if self.up_queue_depth < 1:
            raise ValueError("up_queue_depth must be >= 1")
        if self.down_queue_depth < 0:
            raise ValueError("down_queue_depth must be >= 0")
        if not 0.0 <= self.miss_rate_threshold <= 1.0:
            raise ValueError("miss_rate_threshold must be in [0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.up_consecutive < 1 or self.down_consecutive < 1:
            raise ValueError("hysteresis streaks must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.step_up < 1 or self.step_down < 1:
            raise ValueError("scale steps must be >= 1")


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
        cfg = self.config
        self.target = (
            cfg.initial_workers if cfg.initial_workers is not None else cfg.min_workers
        )
        self.events: List[ScaleEvent] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self._up_streak = 0
        self._down_streak = 0
        self._last_event_at: Optional[float] = None
        # (shed_delta, answered_delta) per observation, for the miss rate.
        self._window: Deque[Tuple[int, int]] = deque(maxlen=cfg.window)

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
        so the window's miss rate covers exactly the last ``window``
        observations regardless of pump cadence.
        """
        cfg = self.config
        self._window.append((max(0, shed_delta), max(0, answered_delta)))
        if breaker_open and cfg.hold_open_breaker:
            # Full tier presumed down: more workers would just fail faster.
            self._up_streak = 0
            self._down_streak = 0
            return self.target
        miss_rate = self.miss_rate()
        if queue_depth >= cfg.up_queue_depth or miss_rate >= cfg.miss_rate_threshold:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= cfg.up_consecutive:
                reason = (
                    "deadline-misses"
                    if miss_rate >= cfg.miss_rate_threshold
                    else "queue-depth"
                )
                self._scale(now, self.target + cfg.step_up, reason)
        elif queue_depth <= cfg.down_queue_depth and miss_rate == 0.0:
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= cfg.down_consecutive:
                self._scale(now, self.target - cfg.step_down, "idle")
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
        if len(self.events) > cfg.max_events:
            del self.events[: len(self.events) - cfg.max_events]
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


class AutoscalingPool:
    """A :class:`~repro.harness.executor.SupervisedExecutor` whose
    concurrency follows an :class:`Autoscaler` target.

    Speaks the executor's streaming API (``has_capacity`` /
    ``spawn_attempt`` / ``pump`` / ``shutdown`` / ``live_workers``) by
    delegation, so a service shard
    (:class:`~repro.service.service.SimulationService`) uses it as a
    drop-in pool. ``sync()`` pushes the current target into the
    executor's ``soft_cap`` — the only actuation there is. Nothing is
    ever killed on scale-down; the cap only gates *new* spawns.
    """

    def __init__(self, executor, scaler: Autoscaler) -> None:
        self.executor = executor
        self.scaler = scaler
        self.sync()

    def sync(self) -> None:
        """Apply the scaler's current target as the pool's soft cap."""
        self.executor.soft_cap = self.scaler.target

    def has_capacity(self) -> bool:
        """Whether a new attempt may spawn under the current soft cap."""
        return self.executor.has_capacity()

    def __getattr__(self, name: str):
        # Everything else (spawn_attempt, pump, shutdown, live_workers,
        # failures, active, _checkpoint_path, ...) is the executor's.
        return getattr(self.executor, name)

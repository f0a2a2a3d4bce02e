"""Seeded load generation: one-shot bursts and shaped traffic models.

Two generations of tooling live here:

* :func:`generate_burst` turns a :class:`BurstSpec` into a fully
  deterministic *untimed* list of requests — the original overload demo.
  Combined with the admission queue's property that admission decisions
  depend only on queue state (submit the whole burst while the service is
  paused, then resume), the (admitted, degraded, shed, rejected)
  breakdown is reproducible run to run.

* :func:`generate_traffic` turns a :class:`TrafficSpec` into a *timed*
  arrival stream (:class:`TimedRequest`), shaped like production load:
  ``diurnal`` (sinusoidal day/night intensity), ``bursty`` (heavy-tailed
  burst trains — the self-similar shape real request logs have),
  ``ramp`` (linear growth, the launch-day shape) or ``uniform``. Each
  request carries seeded per-client mix / priority / deadline /
  degradability draws, so the stream exercises every admission path.
  Recorded streams round-trip through :func:`save_recording` /
  :func:`load_recording` as checksummed ``repro.storage`` artifacts
  (``repro serve --record`` captures, ``repro replay`` replays).

* :func:`replay_traffic` / :func:`replay_realtime` drive a stream into a
  service. The virtual-clock driver advances time in fixed ticks, so a
  whole campaign — admission, deadline shedding, breaker cooldowns,
  autoscaler decisions — is a deterministic function of (spec, seed,
  config): the property chaos-day reports are pinned on.

The ``expired_fraction`` share of requests carries ``deadline_s=0.0``:
their deadline has lapsed by construction, so they are *deterministically*
shed at dequeue regardless of how fast the pump runs — the knob that makes
"shed" counts exact instead of racy.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.harness.executor import POLL_INTERVAL_S
from repro.service.request import SimRequest, SimResponse
from repro.util.seeds import SeedSequencer

#: Storage-artifact identity of a recorded traffic stream.
RECORDING_FORMAT = "traffic-recording"
RECORDING_VERSION = 1

#: Shapes :func:`generate_traffic` knows how to produce.
TRAFFIC_SHAPES = ("uniform", "diurnal", "bursty", "ramp")

#: Clients every generated request is drawn from, uniformly.
CLIENTS = ("alice", "bob", "carol", "dave")
#: Priorities are drawn uniformly from ``range(PRIORITY_LEVELS)``.
PRIORITY_LEVELS = 3
#: The mix every burst request simulates.
BURST_MIX = "mix05"
#: Range a live relative deadline is drawn from, uniformly (seconds).
DEADLINE_RANGE_S = (0.5, 5.0)
#: Peak/trough intensity ratio of the ``diurnal`` and ``ramp`` shapes.
PEAK_TO_TROUGH = 4.0
#: Mean burst size of the ``bursty`` shape.
BURST_MEAN_SIZE = 16
#: Wall-clock cap on one real-time replay; the caller then drains.
MAX_WALL_S = 600.0


@dataclass(frozen=True)
class BurstSpec:
    """Shape of one synthetic request burst.

    Every request runs :data:`BURST_MIX` for one of :data:`CLIENTS`.
    ``expired_fraction`` requests get ``deadline_s=0.0`` (shed at dequeue,
    deterministically); ``degradable_fraction`` of the rest accept a
    fast-model answer. Simulation parameters are kept tiny so even the
    full-tier share of a 200-request burst finishes in seconds.
    """

    requests: int = 200
    seed: int = 0
    degradable_fraction: float = 0.8
    expired_fraction: float = 0.1
    quanta: int = 2
    warmup_quanta: int = 1
    quantum_cycles: int = 256
    num_threads: int = 4

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 0.0 <= self.degradable_fraction <= 1.0:
            raise ValueError("degradable_fraction must be in [0, 1]")
        if not 0.0 <= self.expired_fraction <= 1.0:
            raise ValueError("expired_fraction must be in [0, 1]")


def generate_burst(spec: BurstSpec) -> List[SimRequest]:
    """The burst, deterministically derived from ``spec.seed``."""
    rng = SeedSequencer(spec.seed).generator("loadgen")
    out: List[SimRequest] = []
    for i in range(spec.requests):
        expired = bool(rng.random() < spec.expired_fraction)
        degradable = bool(rng.random() < spec.degradable_fraction)
        out.append(
            SimRequest(
                request_id=f"req-{spec.seed:03d}-{i:04d}",
                client=CLIENTS[int(rng.integers(len(CLIENTS)))],
                mix=BURST_MIX,
                quanta=spec.quanta,
                warmup_quanta=spec.warmup_quanta,
                quantum_cycles=spec.quantum_cycles,
                num_threads=spec.num_threads,
                seed=int(rng.integers(1 << 16)),
                priority=int(rng.integers(PRIORITY_LEVELS)),
                deadline_s=0.0 if expired else None,
                degradable=degradable,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Timed traffic models.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TimedRequest:
    """One arrival in a traffic stream: *when* plus *what*."""

    at_s: float
    request: SimRequest

    def to_json(self) -> dict:
        """Plain-dict form for the recording artifact."""
        return {"at_s": self.at_s, "request": self.request.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "TimedRequest":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            at_s=float(payload["at_s"]),
            request=SimRequest.from_json(payload["request"]),
        )


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of a timed, shaped request stream.

    Attributes:
        shape: one of :data:`TRAFFIC_SHAPES`. ``diurnal`` modulates
            intensity sinusoidally over one period of ``duration_s`` with
            peak/trough ratio :data:`PEAK_TO_TROUGH`; ``ramp`` grows
            linearly to the same ratio; ``bursty`` packs arrivals into
            heavy-tailed burst trains of mean size
            :data:`BURST_MEAN_SIZE`; ``uniform`` is evenly spread.
        requests / duration_s: stream size and (virtual) length.
        mixes: the mixes requests are drawn from, uniformly. Clients and
            priorities are drawn uniformly from :data:`CLIENTS` and
            ``range(PRIORITY_LEVELS)``.
        deadline_fraction: share of requests carrying a live relative
            deadline drawn uniformly from :data:`DEADLINE_RANGE_S`.
        expired_fraction: share with ``deadline_s=0.0`` (deterministic
            sheds).
        fault_fraction / fault_kinds / fault_rate: share of requests
            carrying per-request fault families into their full-fidelity
            attempt (the chaos-day hook).
        Remaining fields mirror :class:`BurstSpec` simulation sizing.
    """

    shape: str = "diurnal"
    requests: int = 200
    duration_s: float = 30.0
    seed: int = 0
    mixes: Tuple[str, ...] = ("mix05",)
    degradable_fraction: float = 0.8
    deadline_fraction: float = 0.25
    expired_fraction: float = 0.05
    fault_fraction: float = 0.0
    fault_kinds: Tuple[str, ...] = ()
    fault_rate: float = 0.25
    quanta: int = 1
    warmup_quanta: int = 0
    quantum_cycles: int = 128
    num_threads: int = 4

    def __post_init__(self) -> None:
        if self.shape not in TRAFFIC_SHAPES:
            raise ValueError(
                f"unknown traffic shape {self.shape!r}; known: {TRAFFIC_SHAPES}"
            )
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        for frac in (
            self.degradable_fraction, self.deadline_fraction,
            self.expired_fraction, self.fault_fraction,
        ):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must be in [0, 1]")


def _shaped_arrivals(spec: TrafficSpec, rng: np.random.Generator) -> np.ndarray:
    """Arrival times for a shape given by an intensity profile.

    Inverse-transform sampling against the cumulative intensity: the i-th
    arrival lands at Λ⁻¹(uᵢ·Λ(T)) with uᵢ strictly increasing seeded
    quantiles, so exactly ``requests`` arrivals land, sorted, matching the
    profile — no rejection loop, fully deterministic.
    """
    grid = np.linspace(0.0, spec.duration_s, 1025)
    if spec.shape == "uniform":
        lam = np.ones_like(grid)
    elif spec.shape == "diurnal":
        # Trough at t=0, peak mid-stream; λ ranges [1, PEAK_TO_TROUGH].
        lam = 1.0 + (PEAK_TO_TROUGH - 1.0) * (
            1.0 - np.cos(2.0 * np.pi * grid / spec.duration_s)
        ) / 2.0
    elif spec.shape == "ramp":
        lam = 1.0 + (PEAK_TO_TROUGH - 1.0) * grid / spec.duration_s
    else:  # pragma: no cover — guarded by TrafficSpec validation
        raise ValueError(spec.shape)
    cum = np.concatenate([[0.0], np.cumsum((lam[1:] + lam[:-1]) / 2.0)])
    n = spec.requests
    quantiles = (np.arange(n) + rng.uniform(0.02, 0.98, n)) / n * cum[-1]
    return np.interp(quantiles, cum, grid)


def _bursty_arrivals(spec: TrafficSpec, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed burst trains: a few big bursts, many small ones.

    Burst sizes follow a Pareto split (the self-similarity stand-in at
    this scale); burst epochs spread over the stream; intra-burst gaps are
    tight exponentials, so queue depth spikes hard and then goes quiet —
    the shape that makes autoscalers and admission control earn their keep.
    """
    n = spec.requests
    n_bursts = max(1, n // BURST_MEAN_SIZE)
    weights = rng.pareto(1.2, n_bursts) + 1.0
    sizes = np.maximum(1, np.floor(weights / weights.sum() * n).astype(int))
    # Largest-remainder top-up so sizes sum to exactly n.
    while sizes.sum() < n:
        sizes[int(np.argmax(weights))] += 1
        weights[int(np.argmax(weights))] /= 2.0
    while sizes.sum() > n:
        big = int(np.argmax(sizes))
        sizes[big] -= 1
    starts = np.sort(rng.uniform(0.0, 0.9 * spec.duration_s, n_bursts))
    mean_gap = spec.duration_s / max(1, n * 8)
    times: List[float] = []
    for start, size in zip(starts, sizes):
        gaps = rng.exponential(mean_gap, int(size))
        times.extend(np.minimum(start + np.cumsum(gaps), spec.duration_s))
    return np.sort(np.asarray(times[:n]))


def generate_traffic(spec: TrafficSpec) -> List[TimedRequest]:
    """The timed stream, deterministically derived from ``spec.seed``."""
    seq = SeedSequencer(spec.seed)
    shape_rng = seq.generator("traffic", spec.shape)
    body_rng = seq.generator("traffic", "requests")
    if spec.shape == "bursty":
        times = _bursty_arrivals(spec, shape_rng)
    else:
        times = _shaped_arrivals(spec, shape_rng)
    lo, hi = DEADLINE_RANGE_S
    out: List[TimedRequest] = []
    for i, at in enumerate(times):
        expired = bool(body_rng.random() < spec.expired_fraction)
        if expired:
            deadline: Optional[float] = 0.0
        elif body_rng.random() < spec.deadline_fraction:
            deadline = float(lo + (hi - lo) * body_rng.random())
        else:
            deadline = None
        faulted = spec.fault_kinds and body_rng.random() < spec.fault_fraction
        out.append(
            TimedRequest(
                at_s=float(at),
                request=SimRequest(
                    request_id=f"t{spec.seed:03d}-{i:05d}",
                    client=CLIENTS[int(body_rng.choice(len(CLIENTS)))],
                    mix=str(spec.mixes[int(body_rng.integers(len(spec.mixes)))]),
                    quanta=spec.quanta,
                    warmup_quanta=spec.warmup_quanta,
                    quantum_cycles=spec.quantum_cycles,
                    num_threads=spec.num_threads,
                    seed=int(body_rng.integers(1 << 16)),
                    priority=int(body_rng.integers(PRIORITY_LEVELS)),
                    deadline_s=deadline,
                    degradable=bool(body_rng.random() < spec.degradable_fraction),
                    fault_kinds=spec.fault_kinds if faulted else (),
                    fault_rate=spec.fault_rate,
                ),
            )
        )
    return out


def traffic_fingerprint(events: Iterable[TimedRequest]) -> str:
    """Content hash of a stream — the reproducibility witness in reports."""
    blob = json.dumps([e.to_json() for e in events], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Recorded-traffic capture and replay (repro.storage artifacts).
# ---------------------------------------------------------------------------
def save_recording(
    path, events: Iterable[TimedRequest], meta: Optional[dict] = None
) -> dict:
    """Persist a traffic stream as a checksummed JSON artifact.

    The document stays greppable plain JSON; the embedded ``artifact``
    block (format ``traffic-recording``) makes it auditable by
    ``repro fsck``. Returns the written document.
    """
    from repro.storage.artifact import embed_json_artifact
    from repro.storage.atomic import atomic_write_bytes

    events = list(events)
    doc = {
        "kind": RECORDING_FORMAT,
        "count": len(events),
        "duration_s": max((e.at_s for e in events), default=0.0),
        "fingerprint": traffic_fingerprint(events),
        "meta": dict(meta or {}),
        "requests": [e.to_json() for e in events],
    }
    doc = embed_json_artifact(doc, RECORDING_FORMAT, RECORDING_VERSION)
    blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, blob.encode("utf-8"))
    return doc


def load_recording(path) -> List[TimedRequest]:
    """Load a recorded stream; raises on damage, sorts by arrival time."""
    from repro.storage.artifact import load_json_artifact

    _, doc = load_json_artifact(path, expect=(RECORDING_FORMAT, RECORDING_VERSION))
    if "requests" not in doc:
        raise ValueError(f"{path}: not a traffic recording (no 'requests' key)")
    events = [TimedRequest.from_json(entry) for entry in doc["requests"]]
    return sorted(events, key=lambda e: (e.at_s, e.request.request_id))


class VirtualClock:
    """A clock the replay loop owns.

    Ticked explicitly by :func:`replay_traffic`, it makes deadline
    shedding, breaker cooldowns and autoscaler cooldowns functions of the
    *schedule* rather than of host speed. ``auto_advance_s`` lets a final
    drain make progress when no driver loop is ticking anymore (each read
    nudges time forward by a deterministic epsilon, so cooldown- and
    deadline-gated paths cannot spin forever).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.auto_advance_s = 0.0

    def __call__(self) -> float:
        self.now += self.auto_advance_s
        return self.now

    def advance(self, dt_s: float) -> float:
        """Tick time forward by ``dt_s`` virtual seconds."""
        self.now += dt_s
        return self.now


def replay_traffic(
    service,
    events: List[TimedRequest],
    clock: VirtualClock,
    tick_s: float = 0.05,
    max_virtual_s: Optional[float] = None,
    time_scale: float = 1.0,
) -> List[SimResponse]:
    """Drive a stream into a service under a virtual clock (lockstep).

    Submits every arrival whose (scaled) time has come, pumps once per
    tick, and collects responses, until the stream is exhausted and the
    service is idle — or ``max_virtual_s`` of virtual time has elapsed
    (the caller then drains; the drain contract still answers everything).
    Deterministic end to end with ``workers=0`` services.
    """
    responses: List[SimResponse] = []
    i = 0
    deadline = (
        clock.now + max_virtual_s if max_virtual_s is not None else None
    )
    while i < len(events) or service.pending > 0:
        now = clock.advance(tick_s)
        while i < len(events) and events[i].at_s * time_scale <= now:
            immediate = service.submit(events[i].request)
            del immediate  # flows out via take_completed below
            i += 1
        service.pump()
        responses.extend(service.take_completed())
        if deadline is not None and clock.now >= deadline:
            break
        if service.inflight > 0 and service.config.workers > 0:
            time.sleep(POLL_INTERVAL_S)
    return responses


def replay_realtime(
    service,
    events: List[TimedRequest],
    time_scale: float = 1.0,
) -> List[SimResponse]:
    """Drive a stream into a service paced by the wall clock.

    ``time_scale < 1`` compresses the recording (replay a day in a
    minute); the loop exits when the stream is exhausted and the service
    is idle, or after ``MAX_WALL_S`` (the caller then drains).
    """
    t0 = time.monotonic()
    i = 0
    responses: List[SimResponse] = []
    while i < len(events) or service.pending > 0:
        now = time.monotonic() - t0
        if now > MAX_WALL_S:
            break
        while i < len(events) and events[i].at_s * time_scale <= now:
            service.submit(events[i].request)
            i += 1
        busy = service.pump()
        responses.extend(service.take_completed())
        if not busy:
            time.sleep(POLL_INTERVAL_S)
    return responses


# ---------------------------------------------------------------------------
# Outcome accounting.
# ---------------------------------------------------------------------------
def breakdown(responses: Iterable[SimResponse]) -> Dict[str, object]:
    """Outcome/tier/reason histogram over a batch of responses.

    This is the demo's reproducible fingerprint: two runs of the same
    seeded burst through the same service configuration must produce the
    same breakdown. Beyond the histograms it carries the derived rates
    replay and chaos reports need, so they never recompute them ad hoc:
    ``deadline_miss_rate`` (shed-for-deadline share of all answers),
    ``degraded_share`` (fast-tier share), and ``per_client_refusals``
    (rejected + shed counts by client — the fairness post-mortem view).
    """
    outcomes: Dict[str, int] = {}
    tiers: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    per_client_refusals: Dict[str, int] = {}
    total = 0
    deadline_misses = 0
    degraded = 0
    for r in responses:
        total += 1
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
        tiers[r.tier] = tiers.get(r.tier, 0) + 1
        if r.reason:
            reasons[r.reason] = reasons.get(r.reason, 0) + 1
        if r.outcome == "shed" and r.reason.startswith("deadline"):
            deadline_misses += 1
        if r.degraded:
            degraded += 1
        if r.outcome in ("rejected", "shed"):
            per_client_refusals[r.client] = per_client_refusals.get(r.client, 0) + 1
    return {
        "total": total,
        "outcomes": dict(sorted(outcomes.items())),
        "tiers": dict(sorted(tiers.items())),
        "reasons": dict(sorted(reasons.items())),
        "deadline_misses": deadline_misses,
        "deadline_miss_rate": (deadline_misses / total) if total else 0.0,
        "degraded_share": (degraded / total) if total else 0.0,
        "per_client_refusals": dict(sorted(per_client_refusals.items())),
    }

"""Request/response types for the simulation service.

A :class:`SimRequest` is one client's ask — "simulate this mix under this
scheduler" — plus the service-level fields admission control needs:
priority, an optional relative deadline, and whether the client will accept
a degraded (fast-model) answer. A :class:`SimResponse` is the service's one
and only answer for that request: every submitted request produces exactly
one response, and every response names its outcome (the
:data:`~repro.harness.errors.OUTCOME_KINDS` taxonomy), the tier that served
it (``full`` / ``fast`` / ``none``), and — when it was not served at full
fidelity — the reason why.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from repro.core.thresholds import ThresholdConfig
from repro.faults.plan import FaultPlan
from repro.harness.errors import (
    OUTCOME_DEGRADED,
    OUTCOME_FULL,
    OUTCOME_KINDS,
)
from repro.harness.runner import BatchRunSpec, RunConfig

#: Service tiers a response can name.
TIER_FULL = "full"  # detailed cycle-level engine
TIER_FAST = "fast"  # calibrated FastMixModel approximation
TIER_NONE = "none"  # not simulated at all (rejected / shed / failed)

TIER_KINDS = (TIER_FULL, TIER_FAST, TIER_NONE)


@dataclass(frozen=True)
class SimRequest:
    """One simulation request as admitted (or refused) by the service.

    ``deadline_s`` is relative to submission: the service stamps an absolute
    expiry at admission and sheds the job if it is still queued when the
    deadline passes. ``degradable`` marks the request as eligible for the
    degradation ladder — under pressure it may be served by the fast model
    instead of waiting for (or failing with) the detailed engine.
    ``fault_kinds`` carries per-request fault families (e.g. ``worker``)
    into the full-fidelity attempt, for chaos testing.
    """

    request_id: str
    client: str = "anon"
    mix: str = "mix05"
    mode: str = "adts"  # "adts" | "fixed"
    policy: str = "icount"
    heuristic: str = "type3"
    threshold: float = 2.0
    quanta: int = 4
    warmup_quanta: int = 1
    quantum_cycles: int = 512
    num_threads: int = 4
    seed: int = 0
    priority: int = 0
    deadline_s: Optional[float] = None
    degradable: bool = True
    fault_kinds: Tuple[str, ...] = ()
    fault_rate: float = 1.0

    def run_config(self) -> RunConfig:
        """The detailed-engine configuration (validates; may raise
        :class:`~repro.harness.errors.ConfigError`)."""
        return RunConfig(
            mix=self.mix,
            num_threads=self.num_threads,
            seed=self.seed,
            quantum_cycles=self.quantum_cycles,
            quanta=self.quanta,
            warmup_quanta=self.warmup_quanta,
            policy=self.policy,
        )

    def run_spec(self) -> BatchRunSpec:
        """The full tier's run: the detailed-engine configuration plus the
        scheduler and fault plan.

        Building it checks every field the full and fast tiers read (each
        rule where its code lives), so admission refuses a malformed
        request here instead of failing a worker: it raises ``ValueError``
        (a :class:`~repro.harness.errors.ConfigError` naming the field,
        where the rule names one) or ``TypeError`` for a wrong type."""
        config = self.run_config()
        plan = None
        if self.fault_kinds:
            plan = FaultPlan.from_kinds(
                list(self.fault_kinds), rate=self.fault_rate, seed=self.seed
            )
        return BatchRunSpec(
            config=config,
            mode=self.mode,
            heuristic=self.heuristic,
            thresholds=ThresholdConfig(ipc_threshold=self.threshold),
            fault_plan=plan,
        )

    @classmethod
    def from_json(cls, payload: dict) -> "SimRequest":
        """Build from a decoded JSON object, ignoring unknown keys."""
        known = set(cls.__dataclass_fields__)
        kw = {k: v for k, v in payload.items() if k in known}
        if "fault_kinds" in kw:
            kw["fault_kinds"] = tuple(kw["fault_kinds"])
        return cls(**kw)

    def to_json(self) -> dict:
        """Plain-dict form; round-trips through :meth:`from_json`.

        ``fault_kinds`` becomes a list (JSON has no tuples) — ``from_json``
        restores it, so recorded traffic replays bit-identically.
        """
        out = asdict(self)
        out["fault_kinds"] = list(out["fault_kinds"])
        return out


@dataclass(frozen=True)
class SimResponse:
    """The service's single answer to one request.

    Invariants (enforced at construction):
      * ``outcome`` is one of :data:`~repro.harness.errors.OUTCOME_KINDS`;
      * ``tier`` is named on every response;
      * a fast-tier response is always explicitly ``degraded`` with a
        non-empty ``reason`` — a degraded answer must never masquerade as
        full fidelity.
    """

    request_id: str
    client: str
    outcome: str
    tier: str
    degraded: bool = False
    reason: str = ""
    payload: Optional[dict] = None
    attempts: int = 0
    wait_s: float = 0.0

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.tier not in TIER_KINDS:
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.tier == TIER_FAST and not (self.degraded and self.reason):
            raise ValueError(
                "fast-tier responses must be marked degraded with a reason"
            )
        if self.outcome == OUTCOME_FULL and self.tier != TIER_FULL:
            raise ValueError("a full outcome must come from the full tier")
        if self.outcome == OUTCOME_DEGRADED and self.tier != TIER_FAST:
            raise ValueError("a degraded outcome must come from the fast tier")

    def to_json(self) -> dict:
        """Plain-dict form for the JSONL wire protocol."""
        return asdict(self)


@dataclass
class QueueEntry:
    """One admitted request while it waits for (or occupies) a worker."""

    request: SimRequest
    seq: int
    enqueued_at: float
    expires_at: Optional[float] = None
    attempts: int = 0
    canary: bool = False

    def sort_key(self) -> tuple:
        """Heap order: priority first (higher serves sooner), earliest
        deadline next (EDF within a priority band), then FIFO."""
        expiry = self.expires_at if self.expires_at is not None else float("inf")
        return (-self.request.priority, expiry, self.seq)

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed while the entry waited."""
        return self.expires_at is not None and now >= self.expires_at

"""Behaviour profiles: a labelled window of telemetry with identity.

A *behaviour profile* freezes what the system actually did — sim counters
and policy-switch rates, service queue/refusal/breaker/DLQ/verification
rates — into one flat numeric metric namespace, stamped with identity
metadata (commit, seed, config fingerprint, host). The paper's thesis
applied to the system itself: measured behaviour, not assumptions, is
what a baseline should pin.

Profiles are deliberately timestamp-free: the payload of a snapshot is a
pure function of what was measured plus the environment identity, so the
same seeded run snapshots to the same content-addressed profile id and a
drift report against a baseline is byte-reproducible.

Capture helpers by layer:

* :func:`profile_from_service` — the service front door's counter map
  (``stats()["counters"]`` of :class:`~repro.service.router.ShardedService`) as
  ``counters.*``, with whole-run ``rate.*`` metrics derived per submitted
  request — the same namespace the online
  :class:`~repro.behavior.guard.DriftGuard` recomputes over its rolling
  window of that map.
* :func:`profile_from_campaign` — a ``chaos-campaign`` report, whose
  ``counters`` block is the same map.
* :func:`profile_from_sim` — sim counters (``SimStats.summary()`` /
  :class:`~repro.harness.runner.RunResult`).
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

#: Storage-artifact identity of a behaviour profile.
PROFILE_FORMAT = "behaviour-profile"
PROFILE_VERSION = 1

#: ``rate.<name>`` metrics derived from the service front door's counter
#: map (``stats()["counters"]``): each rate names its numerator counter;
#: the denominator is :data:`RATE_DENOMINATOR`. The whole-run capture and
#: the DriftGuard's rolling window both speak exactly this namespace, so
#: an offline baseline is directly comparable to an online window.
SERVICE_RATE_KEYS: Dict[str, str] = {
    "rate.answered": "front_answered",
    "rate.store_hits": "front_store_hits",
    "rate.simulations": "front_simulations",
    "rate.shard_restarts": "full_failures",
    "rate.coalesced_waiters": "front_coalesced_waiters",
    "rate.waiter_refusals": "front_waiter_refusals",
    "rate.dlq_refused": "front_dlq_refused",
    "rate.verification_divergent": "verify_divergent",
}

#: The counter every ``rate.*`` metric is divided by.
RATE_DENOMINATOR = "front_submitted"

_LABEL_OK = re.compile(r"[^A-Za-z0-9._-]+")


def flatten_metrics(obj: object, prefix: str = "") -> Dict[str, float]:
    """Flatten nested telemetry into ``dotted.name -> float`` leaves.

    Only numeric leaves survive (bools become 0.0/1.0 — useful for flags
    like ``bit_identical``); strings, Nones and lists are dropped, so
    event logs and free-form provenance never pollute the metric space.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, Mapping):
        for key in sorted(obj):
            name = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(obj[key], name))
        return out
    if isinstance(obj, bool):
        out[prefix] = 1.0 if obj else 0.0
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def _sanitize_label(label: str) -> str:
    cleaned = _LABEL_OK.sub("-", label).strip("-.")
    if not cleaned:
        raise ValueError(f"unusable profile label {label!r}")
    return cleaned


@dataclass(frozen=True)
class BehaviorProfile:
    """One captured window of behaviour, ready for baselining."""

    label: str
    source: str  # "service" | "sim" | "chaosday" | "imported"
    metrics: Dict[str, float] = field(default_factory=dict)
    identity: Dict[str, object] = field(default_factory=dict)
    window: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _sanitize_label(self.label))
        if not self.metrics:
            raise ValueError("a behaviour profile needs at least one metric")
        bad = sorted(
            k for k, v in self.metrics.items()
            if not isinstance(v, (int, float)) or isinstance(v, bool)
        )
        if bad:
            raise ValueError(f"non-numeric metrics: {bad[:5]}")

    @property
    def profile_id(self) -> str:
        """Content-addressed id: ``<label>-<digest12>`` over the payload.

        Two snapshots of the same measured behaviour in the same
        environment collapse to the same id — re-snapshotting a seeded
        run is idempotent rather than duplicative.
        """
        from repro.harness.runner import fields_digest

        return f"{self.label}-{fields_digest(self.to_payload())[:12]}"

    def to_payload(self) -> dict:
        """JSON document body (the ``"artifact"`` block rides alongside)."""
        return {
            "kind": PROFILE_FORMAT,
            "label": self.label,
            "source": self.source,
            "identity": dict(self.identity),
            "window": dict(self.window),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "BehaviorProfile":
        """Rebuild from a stored payload. A profile drives baseline
        comparisons and CI gates, so a damaged one is refused, never
        repaired: a missing label, source or identity block, no metrics,
        or a non-numeric metric (booleans included: they pass
        ``isinstance(..., int)`` but are never metric values) raises
        ValueError. ``repro fsck`` quarantines exactly what this refuses."""
        label = payload.get("label")
        source = payload.get("source")
        metrics = payload.get("metrics")
        identity = payload.get("identity")
        if not isinstance(label, str) or not label:
            raise ValueError("behaviour-profile missing label")
        if not isinstance(source, str) or not source:
            raise ValueError("behaviour-profile missing source")
        if not isinstance(metrics, Mapping) or not metrics:
            raise ValueError("behaviour-profile carries no metrics")
        for name, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"behaviour-profile metric {name!r} is not numeric")
        if not isinstance(identity, Mapping):
            raise ValueError("behaviour-profile missing identity block")
        return cls(
            label=label,
            source=source,
            metrics={str(k): float(v) for k, v in metrics.items()},
            identity=dict(identity),
            window=dict(payload.get("window") or {}),
        )


def _git_metadata() -> Dict[str, str]:
    meta = {}
    for key, cmd in (
        ("commit", ["git", "rev-parse", "HEAD"]),
        ("branch", ["git", "rev-parse", "--abbrev-ref", "HEAD"]),
    ):
        try:
            meta[key] = subprocess.run(
                cmd, capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            meta[key] = "unknown"
    return meta


def profile_identity(
    seed: Optional[int] = None,
    config_fields: Optional[Mapping] = None,
) -> Dict[str, object]:
    """Identity metadata: commit/branch, host, python, seed and a config
    fingerprint (:func:`~repro.harness.runner.fields_digest` over the
    canonical config), so a baseline names exactly what it measured."""
    import platform
    import socket

    from repro.harness.runner import fields_digest

    identity: Dict[str, object] = dict(_git_metadata())
    identity["host"] = socket.gethostname()
    identity["python"] = platform.python_version()
    if seed is not None:
        identity["seed"] = int(seed)
    if config_fields is not None:
        identity["config_digest"] = fields_digest(dict(config_fields))
    return identity


def service_rates(
    counters: Mapping[str, float],
    then: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """The ``rate.*`` namespace over a counter-map delta.

    With ``then`` omitted the rates cover the whole run; the DriftGuard
    passes the oldest map in its rolling window instead. Returns {} when
    no request was submitted in the delta — there is no behaviour to rate
    yet — or when the map has no denominator (a report written before the
    front door counted). A rate whose counter the map lacks is left out
    rather than read as zero.
    """
    then = then or {}
    submitted = counters.get(RATE_DENOMINATOR, 0) - then.get(RATE_DENOMINATOR, 0)
    if submitted <= 0:
        return {}
    return {
        rate: (counters[name] - then.get(name, 0)) / submitted
        for rate, name in SERVICE_RATE_KEYS.items()
        if name in counters
    }


def profile_from_service(
    service,
    label: str,
    seed: Optional[int] = None,
    breakdown: Optional[Mapping] = None,
) -> BehaviorProfile:
    """Capture the front door's counter map plus derived rates.

    ``breakdown`` (a :func:`~repro.service.loadgen.breakdown` result over the
    run's responses) folds outcome/tier shares in when the caller has
    the response stream at hand.
    """
    counters = service.stats()["counters"]
    metrics = flatten_metrics(counters, "counters")
    metrics.update(service_rates(counters))
    if breakdown is not None:
        metrics.update(
            flatten_metrics(
                {
                    "deadline_miss_rate": breakdown.get("deadline_miss_rate"),
                    "degraded_share": breakdown.get("degraded_share"),
                    "outcomes": breakdown.get("outcomes"),
                    "tiers": breakdown.get("tiers"),
                },
                "breakdown",
            )
        )
    cfg = getattr(service, "config", None)
    config_fields = None
    if cfg is not None:
        from dataclasses import asdict

        config_fields = asdict(cfg)
    return BehaviorProfile(
        label=label,
        source="service",
        metrics=metrics,
        identity=profile_identity(seed=seed, config_fields=config_fields),
    )


def profile_from_campaign(
    report: Mapping, label: str, source: str = "chaosday"
) -> BehaviorProfile:
    """Capture the deterministic portion of a chaos-campaign report."""
    contract = report.get("contract")
    if not isinstance(contract, Mapping):
        raise ValueError("campaign report has no contract block")
    counters = report.get("counters")
    picked = {
        "contract": contract,
        "breakdown": report.get("breakdown"),
        "counters": counters,
        "verification": report.get("verification"),
        "breaker": report.get("breaker"),
        "fsck": report.get("fsck"),
        "exit_code": report.get("exit_code"),
    }
    scaler = report.get("autoscaler")
    if isinstance(scaler, Mapping):
        picked["autoscaler"] = {
            k: scaler.get(k) for k in ("scale_ups", "scale_downs", "target")
        }
    metrics = flatten_metrics(picked)
    # The rate.* namespace too, so campaign baselines can seed a
    # DriftGuard directly.
    if isinstance(counters, Mapping):
        metrics.update(service_rates(counters))
    cfg = report.get("config")
    measured = None
    if isinstance(cfg, Mapping):
        # Where the profile is saved is not what it measured.
        measured = {k: v for k, v in cfg.items()
                    if k not in ("profile_store", "profile_label")}
    return BehaviorProfile(
        label=label,
        source=source,
        metrics=metrics,
        identity=profile_identity(
            seed=(cfg or {}).get("seed"),
            config_fields=measured,
        ),
        window={
            "requests": contract.get("submitted"),
            "deterministic": bool(report.get("deterministic", False)),
        },
    )


def profile_from_sim(
    stats_summary: Mapping,
    label: str,
    seed: Optional[int] = None,
    config_fields: Optional[Mapping] = None,
    window: Optional[Mapping] = None,
) -> BehaviorProfile:
    """Capture sim counters as ``sim.*`` metrics.

    ``stats_summary`` is a :meth:`~repro.smt.stats.SimStats.summary` dict
    (or any flat numeric mapping, e.g. ``{"ipc": ..., **result.scheduler}``
    from a :class:`~repro.harness.runner.RunResult`, whose scheduler
    counters carry the switch and watchdog telemetry).
    """
    metrics = flatten_metrics(stats_summary, "sim")
    if not metrics:
        raise ValueError("sim capture produced no numeric metrics")
    return BehaviorProfile(
        label=label,
        source="sim",
        metrics=metrics,
        identity=profile_identity(seed=seed, config_fields=config_fields),
        window=dict(window or {}),
    )

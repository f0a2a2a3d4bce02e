"""Behaviour profiles, baselines, and drift-guarded operation.

Capture (:mod:`~repro.behavior.profile`) → persist and designate a
baseline (:mod:`~repro.behavior.store`) → compare
(:mod:`~repro.behavior.drift`) → guard live services
(:mod:`~repro.behavior.guard`). Offline gating lives in
:func:`repro.harness.regression.verify_profile`.
"""

from repro.behavior.drift import (
    VERDICT_DRIFT,
    VERDICT_OK,
    VERDICT_WARN,
    DriftConfig,
    DriftReport,
    MetricDrift,
    compute_drift,
)
from repro.behavior.guard import (
    LEVELS,
    DriftGuard,
    GuardEvent,
)
from repro.behavior.profile import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    SERVICE_RATE_KEYS,
    BehaviorProfile,
    flatten_metrics,
    profile_from_campaign,
    profile_from_service,
    profile_from_sim,
    profile_identity,
    service_rates,
)
from repro.behavior.store import BASELINE_POINTER, ProfileStore, load_profile

__all__ = [
    "BASELINE_POINTER",
    "BehaviorProfile",
    "DriftConfig",
    "DriftGuard",
    "DriftReport",
    "GuardEvent",
    "LEVELS",
    "MetricDrift",
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "ProfileStore",
    "SERVICE_RATE_KEYS",
    "VERDICT_DRIFT",
    "VERDICT_OK",
    "VERDICT_WARN",
    "compute_drift",
    "flatten_metrics",
    "load_profile",
    "profile_from_campaign",
    "profile_from_service",
    "profile_from_sim",
    "profile_identity",
    "service_rates",
]

"""Behaviour profiles, baselines, and drift-guarded operation.

Capture (:mod:`~repro.behavior.profile`) → persist and designate a
baseline (:mod:`~repro.behavior.store`) → compare
(:mod:`~repro.behavior.drift`) → guard live services
(:mod:`~repro.behavior.guard`). Offline gating lives in
:func:`repro.harness.regression.verify_profile`.
"""

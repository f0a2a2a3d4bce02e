"""Seeded fault injection: perturb telemetry, the detector thread, policy
actuation and the workload, deterministically, to evaluate ADTS's graceful
degradation (the robustness evaluation layer the paper's §3–§4 discussion
implies but never builds)."""

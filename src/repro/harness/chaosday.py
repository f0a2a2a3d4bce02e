"""Chaos-day campaigns: every fault family at once, against replayed load.

PRs 1–5 each proved one robustness mechanism in isolation — seeded
scheduler faults, a supervised worker pool, admission/breaker/degradation
serving, and a self-healing storage layer. A chaos day is the integration
proof: one seeded campaign drives shaped (or recorded) traffic through the
service front door (:class:`~repro.service.router.ShardedService`) with
autoscaling enabled while *all* the fault families fire together —

* in-process scheduler faults (counters / dt / policy / hangs) ride on a
  seeded fraction of requests via ``SimRequest.fault_kinds``;
* worker crash / hang faults ride along the same way when a supervised
  pool is in use (``workers > 0``);
* service faults (synthetic overload, forced breaker trips) come from the
  service's own :class:`~repro.faults.plan.FaultPlan` hooks;
* disk faults (torn writes, ENOSPC, failed renames) are injected by
  :func:`~repro.storage.faultfs.faultfs_session` under the
  content-addressed result store every campaign serves through
  (``out/resultstore``), so cache corruption and lost puts are part of
  the proof;
* silent result corruption (``corrupt_rate > 0``) flips counter bits in
  served full-fidelity payloads at the front door — the
  integrity hazard shadow verification (``verify_rate``) exists to
  catch; poison-pill identities are parked by the DLQ at
  ``dlq_threshold`` strikes.

The campaign asserts one machine-checkable **drain contract**: every
submitted request produced exactly one response; every refusal (rejected /
shed / failed) carries a machine-readable reason; the artifact tree —
including the result store that took disk faults all campaign — is
fsck-clean (no quarantines) afterwards. The contract also folds in the
front door's **verification audit**: every injected corruption event
must have been caught (no tainted payload still served from the store),
no divergent-marked entry may survive, and the DLQ must still refuse
everything it parked. The report is written through
``repro.storage`` as a checksummed ``chaos-campaign`` artifact, and with
the default inline lockstep mode (``workers=0`` + virtual clock) the
deterministic portion of the report is a pure function of (config, seed):
same seed, same report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.faults.plan import FaultPlan
from repro.service.autoscale import AutoscalerConfig
from repro.service.loadgen import (
    TimedRequest,
    TrafficSpec,
    VirtualClock,
    breakdown,
    generate_traffic,
    load_recording,
    replay_realtime,
    replay_traffic,
    save_recording,
    traffic_fingerprint,
)
from repro.service.request import SimRequest, SimResponse
from repro.service.router import ShardedService
from repro.service.service import ServiceConfig

#: Storage-artifact identity of a campaign report.
CAMPAIGN_FORMAT = "chaos-campaign"
CAMPAIGN_VERSION = 1

#: Outcomes that count as refusals and therefore must carry a reason.
_REFUSAL_OUTCOMES = ("rejected", "shed", "failed")

#: Share of synthetic requests carrying in-process scheduler faults, and
#: the per-boundary fault rate inside those requests.
REQUEST_FAULT_FRACTION = 0.25
REQUEST_FAULT_RATE = 0.2

#: The campaign service's admission and retry settings where they differ
#: from :class:`~repro.service.service.ServiceConfig`'s defaults: a deeper queue
#: that starts degrading before it is full, a second full-tier attempt
#: per request, and a shorter breaker cooldown.
QUEUE_CAPACITY = 32
DEGRADE_AT_DEPTH = 24
MAX_ATTEMPTS = 2
BREAKER_COOLDOWN_S = 2.0


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos day, declaratively.

    Attributes:
        seed: root seed — traffic, per-request faults, service faults and
            disk faults all derive from it.
        shape / requests / duration_s: the synthetic traffic model
            (ignored when ``recording`` is set).
        recording: path of a ``traffic-recording`` artifact to replay
            instead of generating synthetic traffic.
        fault_rate: shared rate for the service and disk fault families
            (see :meth:`~repro.faults.plan.FaultPlan.chaos_day`). Synthetic
            traffic also carries in-process scheduler faults
            (:data:`REQUEST_FAULT_FRACTION`, :data:`REQUEST_FAULT_RATE`).
        workers: 0 = inline lockstep under a virtual clock (fully
            deterministic report — the default and what CI pins);
            > 0 = real supervised pool paced by the wall clock, which
            additionally exercises worker crash/hang faults.
        shards: shards behind the front door
            (:class:`~repro.service.router.ShardedService`), which always routes
            by identity and coalesces identical in-flight requests under
            crash-safe leases, over the campaign's content-addressed
            result store at ``out_dir/resultstore`` (one ``shard-00``
            segment whatever the shard count), which takes the disk
            faults.
        verify_rate: shadow-verification sampling rate (0 disables).
        dlq_threshold: engine-failure strikes before an identity is
            parked in the dead-letter queue (0 disables; the store's
            ``dlq/`` holds parked identities).
        corrupt_rate: seeded silent-corruption injection rate on served
            full-fidelity results — the hazard verification must catch.
            Campaigns with ``corrupt_rate > 0`` only pass when the
            verification audit shows every injected event was caught.
        autoscale_min / autoscale_max: autoscaler bounds (always on —
            a chaos day without scaling pressure isn't one).
        tick_s: virtual-clock step per replay iteration.
        time_scale: arrival-time multiplier (compress a recording).
        drain_deadline_s: the service's drain budget.
        profile_store: behaviour-profile store directory — the campaign's
            behaviour is snapshotted there at the end, and when the store
            has a designated baseline a rolling DriftGuard watches the
            front door for the whole campaign (None disables both).
        profile_label: label for the captured profile (default
            ``chaosday``).
    """

    seed: int = 0
    shape: str = "diurnal"
    requests: int = 120
    duration_s: float = 30.0
    recording: Optional[str] = None
    fault_rate: float = 0.1
    workers: int = 0
    shards: int = 1
    verify_rate: float = 0.0
    dlq_threshold: int = 0
    corrupt_rate: float = 0.0
    autoscale_min: int = 1
    autoscale_max: int = 4
    tick_s: float = 0.05
    time_scale: float = 1.0
    drain_deadline_s: float = 15.0
    profile_store: Optional[str] = None
    profile_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 1 <= self.autoscale_min <= self.autoscale_max:
            raise ValueError("need 1 <= autoscale_min <= autoscale_max")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.drain_deadline_s <= 0:
            raise ValueError("drain_deadline_s must be positive")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if not 0.0 <= self.verify_rate <= 1.0:
            raise ValueError("verify_rate must be in [0, 1]")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be in [0, 1]")
        if self.dlq_threshold < 0:
            raise ValueError("dlq_threshold must be >= 0")


def _campaign_traffic(cfg: CampaignConfig) -> List[TimedRequest]:
    if cfg.recording is not None:
        return load_recording(cfg.recording)
    kinds = ["counters", "dt", "policy", "hangs"]
    if cfg.workers > 0:
        # Process-level faults only where a supervisor can contain them.
        kinds.append("worker")
    spec = TrafficSpec(
        shape=cfg.shape,
        requests=cfg.requests,
        duration_s=cfg.duration_s,
        seed=cfg.seed,
        fault_fraction=REQUEST_FAULT_FRACTION,
        fault_kinds=tuple(kinds),
        fault_rate=REQUEST_FAULT_RATE,
    )
    return generate_traffic(spec)


def check_contract(
    events: List[TimedRequest],
    responses: List[SimResponse],
    stats: dict,
    audit: Optional[dict] = None,
) -> dict:
    """The drain contract, as data.

    Conservation — every submitted request answered exactly once — plus
    the refusal-reason obligation. ``ok`` is the machine-checkable verdict
    the exit code and :func:`~repro.harness.regression.verify_campaign`
    both key on.

    ``audit`` (a :meth:`~repro.service.router.ShardedService.verification_audit`
    result) is folded into ``ok``: a campaign that injected silent
    corruption passes only if every injected event was caught, no
    divergent-marked store entry survives, and the DLQ still refuses
    everything it parked. The report carries the audit itself once, as
    its top-level ``verification`` block.
    """
    submitted = [e.request.request_id for e in events]
    answered: dict = {}
    refusals_without_reason = 0
    for r in responses:
        answered[r.request_id] = answered.get(r.request_id, 0) + 1
        if r.outcome in _REFUSAL_OUTCOMES and not r.reason:
            refusals_without_reason += 1
    missing = sorted(rid for rid in submitted if rid not in answered)
    duplicates = sorted(rid for rid, n in answered.items() if n > 1)
    unknown = sorted(set(answered) - set(submitted))
    unaccounted = len(missing) + len(duplicates) + len(unknown)
    ok = (
        unaccounted == 0
        and refusals_without_reason == 0
        and stats["queue_depth"] == 0
        and stats["inflight"] == 0
        and len(responses) == len(submitted)
        and (audit is None or bool(audit.get("ok")))
    )
    return {
        "ok": ok,
        "submitted": len(submitted),
        "answered": len(responses),
        "unaccounted": unaccounted,
        "missing": missing[:20],
        "duplicates": duplicates[:20],
        "unknown": unknown[:20],
        "refusals_without_reason": refusals_without_reason,
    }


def run_campaign(
    cfg: CampaignConfig,
    out_dir: Union[str, Path],
    *,
    full_runner: Optional[Callable[[SimRequest], dict]] = None,
    fast_runner: Optional[Callable[[SimRequest], dict]] = None,
) -> Tuple[dict, int]:
    """Run one chaos day; returns ``(report, exit_code)``.

    Artifacts land in ``out_dir``: ``resultstore/`` (the result store
    that absorbs the disk faults), ``traffic.json`` (the replayed stream,
    for audit/re-replay) and ``campaign.json`` (the report). Exit code 0
    iff the drain contract held *and* the post-run fsck found nothing to
    quarantine. ``full_runner`` / ``fast_runner`` exist for tests that
    substitute synthetic engines.
    """
    from repro.storage.artifact import embed_json_artifact
    from repro.storage.atomic import atomic_write_bytes
    from repro.storage.fsck import fsck_tree
    import json

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = FaultPlan.chaos_day(
        seed=cfg.seed, rate=cfg.fault_rate, corrupt_rate=cfg.corrupt_rate
    )
    events = _campaign_traffic(cfg)
    fingerprint = traffic_fingerprint(events)

    deterministic = cfg.workers == 0
    clock: Callable[[], float]
    virtual: Optional[VirtualClock] = None
    if deterministic:
        virtual = VirtualClock()
        clock = virtual
    else:
        import time

        clock = time.monotonic

    service_cfg = ServiceConfig(
        workers=cfg.workers,
        queue_capacity=QUEUE_CAPACITY,
        degrade_at_depth=DEGRADE_AT_DEPTH,
        max_attempts=MAX_ATTEMPTS,
        breaker_cooldown_s=BREAKER_COOLDOWN_S,
        drain_deadline_s=cfg.drain_deadline_s,
        fault_plan=plan,
        autoscaler=AutoscalerConfig(
            min_workers=cfg.autoscale_min,
            max_workers=cfg.autoscale_max,
            cooldown_s=max(cfg.tick_s * 4, 0.2),
        ),
    )
    service = ShardedService(
        service_cfg,
        shards=cfg.shards,
        store=out / "resultstore",
        full_runner=full_runner,
        fast_runner=fast_runner,
        clock=clock,
        verify_rate=cfg.verify_rate,
        verify_seed=cfg.seed,
        dlq_threshold=cfg.dlq_threshold,
    )

    profile_store = None
    if cfg.profile_store is not None:
        from repro.behavior.guard import DriftGuard
        from repro.behavior.store import ProfileStore

        profile_store = ProfileStore(cfg.profile_store)
        baseline = profile_store.load_baseline()
        if baseline is not None:
            try:
                service.drift_guard = DriftGuard(baseline)
            except ValueError:
                # Baseline carries no rate.* metrics (a sim profile):
                # nothing to compare online; offline drift via
                # `repro profile drift` still covers it.
                pass

    # The disk fault family lives under everything the result store writes
    # during the campaign; the traffic/report artifacts are written after
    # the session so the evidence itself is never fault-injected.
    from repro.storage.faultfs import faultfs_session

    with faultfs_session(plan) as ffs:
        if virtual is not None:
            responses = replay_traffic(
                service,
                events,
                virtual,
                tick_s=cfg.tick_s,
                max_virtual_s=cfg.duration_s * 4 + 60.0,
                time_scale=cfg.time_scale,
            )
            # Nothing ticks the clock during drain; let each read nudge
            # time forward so cooldown/deadline-gated paths make progress.
            virtual.auto_advance_s = cfg.tick_s
        else:
            responses = replay_realtime(
                service, events, time_scale=cfg.time_scale
            )
        stats = service.drain(cfg.drain_deadline_s)
        responses.extend(service.take_completed())
        disk_summary = ffs.summary() if ffs is not None else None

    audit = service.verification_audit()
    contract = check_contract(events, responses, stats, audit=audit)
    fsck = fsck_tree(out, repair=True)
    fsck_ok = fsck.exit_code == 0
    exit_code = 0 if (contract["ok"] and fsck_ok) else 1

    save_recording(
        out / "traffic.json",
        events,
        meta={"source": "chaosday", "seed": cfg.seed, "shape": cfg.shape},
    )
    report = {
        "kind": CAMPAIGN_FORMAT,
        "config": asdict(cfg),
        "deterministic": deterministic,
        "traffic_fingerprint": fingerprint,
        "contract": contract,
        "breakdown": breakdown(responses),
        "counters": stats["counters"],
        "breaker": {
            "state": stats["breaker"]["state"],
            "transitions": len(stats["breaker_transitions"]),
        },
        "autoscaler": stats["autoscaler"],
        "verification": audit,
        "faults": {
            "plan": {
                "seed": plan.seed,
                "rate": cfg.fault_rate,
                "corrupt_rate": cfg.corrupt_rate,
            },
            "disk": disk_summary,
        },
        "fsck": {"counts": fsck.counts, "exit_code": fsck.exit_code},
        "exit_code": exit_code,
    }
    if profile_store is not None:
        from repro.behavior.profile import profile_from_campaign

        profile = profile_from_campaign(
            report, cfg.profile_label or "chaosday"
        )
        profile_id = profile_store.save(profile)
        guard = service.drift_guard
        report["behavior"] = {
            "profile": profile_id,
            "baseline": profile_store.baseline_id(),
            "guard": guard.summary() if guard is not None else None,
        }
    doc = embed_json_artifact(report, CAMPAIGN_FORMAT, CAMPAIGN_VERSION)
    blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(out / "campaign.json", blob.encode("utf-8"))
    return report, exit_code


def format_report(report: dict) -> str:
    """Terminal rendering of a campaign report."""
    contract = report["contract"]
    b = report["breakdown"]
    lines = [
        f"chaos day: seed={report['config']['seed']} "
        f"shape={report['config']['shape']} "
        f"requests={contract['submitted']} "
        f"{'deterministic' if report['deterministic'] else 'wall-clock'}",
        f"  contract: {'OK' if contract['ok'] else 'VIOLATED'} "
        f"(answered {contract['answered']}/{contract['submitted']}, "
        f"unaccounted {contract['unaccounted']}, "
        f"reasonless refusals {contract['refusals_without_reason']})",
        f"  outcomes: {b['outcomes']}",
        f"  degraded share {b['degraded_share']:.2%}, "
        f"deadline miss rate {b['deadline_miss_rate']:.2%}",
    ]
    scaler = report.get("autoscaler")
    if scaler is not None:
        lines.append(
            f"  autoscaler: ups={scaler['scale_ups']} "
            f"downs={scaler['scale_downs']} "
            f"final target={scaler['target']}"
        )
    c = report["counters"]
    audit = report["verification"]
    dlq = audit.get("dlq") or {}
    lines.extend(
        [
            f"  sharding: {report['config']['shards']} shard(s), "
            f"{c['front_simulations']} simulation(s) for "
            f"{c['front_submitted']} request(s) "
            f"(store hits {c['front_store_hits']}, "
            f"coalesced {c['front_coalesced_waiters']}, "
            f"promotions {c['front_promotions']})",
            f"  integrity: {'OK' if audit['ok'] else 'VIOLATED'} "
            f"(corrupted {c['front_results_corrupted']}, "
            f"caught {audit['caught']}, "
            f"uncaught {len(audit['uncaught'])}, "
            f"verified {c['verify_verified']}, restored {c['verify_restored']}, "
            f"dlq parked {dlq.get('parked', 0)})",
            f"  breaker transitions: {report['breaker']['transitions']}",
            f"  fsck: {report['fsck']['counts']} "
            f"(exit {report['fsck']['exit_code']})",
            f"  exit: {report['exit_code']}",
        ]
    )
    return "\n".join(lines)

"""Command-line interface: ``python -m repro <command> [options]``.

Commands map one-to-one onto the experiment index (DESIGN.md §4):

    run        one simulation (fixed policy or ADTS) on a mix
    table1     the ten fixed policies, ranked
    grid       the Figure 7/8 threshold x type sweep (detailed engine)
    fastgrid   the full 13-mix grid on the fast model
    headline   ADTS (thr 2, Type 3) vs fixed ICOUNT
    scaling    throughput vs thread count
    oracle     the clairvoyant per-quantum upper bound
    resilience ADTS under a seeded fault storm vs. clean
    serve      long-running overload-safe simulation service (JSONL stdio);
               --record captures the request stream for later replay
    burst      seeded overload demo (or --emit JSONL for piping into serve)
    replay     drive recorded or shaped (diurnal/bursty/ramp) traffic into
               a service; deterministic under --workers 0
    chaosday   combined-fault campaign (scheduler + worker + service + disk
               faults) against replayed traffic; exits 0 iff the drain
               contract held and fsck quarantined nothing
    fsck       audit and repair an artifact tree (journals, result stores,
               reports, profiles); exits non-zero iff it quarantined
    profile    behaviour profiles: snapshot a run's telemetry into a
               labelled artifact, designate baselines, compute drift
    mixes      list the 13 mixes
    policies   list the Table-1 policies

``run`` accepts ``--faults counters,dt,policy,hangs`` (or ``all``) to
inject seeded faults; ``grid`` accepts ``--journal PATH`` / ``--resume``
for crash-resilient sweeps (a resumed sweep skips journaled cells) and
``--workers N`` to run its per-mix lockstep batches in supervised child
processes (crash containment, SIGKILL-enforced timeouts and
heartbeat-staleness limits, bounded restarts) — results are identical to
the in-process sweep for any worker count. A failed attempt is recomputed
from cycle zero: no command takes mid-run snapshots. ``--retries``,
``--run-timeout`` and ``--heartbeat-timeout`` apply per batch attempt and
need ``--workers``. ``grid`` also accepts ``--faults disk`` to run the
sweep under seeded filesystem faults (torn writes, mid-record ENOSPC,
failed renames): the storage layer recovers or regenerates every
artifact, so the aggregate is identical to a fault-free sweep. A
worker-pool ``grid`` also installs SIGINT/SIGTERM handlers that kill the
pool, release the journal lock, and exit ``128 + signum`` — Ctrl-C never
leaves orphan simulator processes or a locked journal behind.

A flag value a command cannot honour exits 2 with one line on stderr
(:class:`UsageError`); exit 1 means a run or a contract failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.thresholds import ThresholdConfig
from repro.faults.plan import FaultPlan
from repro.harness.errors import ConfigError
from repro.harness.experiments import (
    ExperimentDefaults,
    experiment_fig8,
    experiment_headline,
    experiment_resilience,
    experiment_table1,
    experiment_thread_scaling,
    run_grid,
)
from repro.harness.journal import RunJournal
from repro.harness.report import format_series, format_table
from repro.harness.runner import BatchRunSpec, RunConfig, run_fields, run_spec
from repro.policies.registry import POLICY_NAMES
from repro.workloads.mixes import MIXES


class UsageError(Exception):
    """A flag value that a command's configuration rejects. :func:`main`
    prints it as one line on stderr and exits 2, argparse's code for bad
    usage, so a script can tell it from a run that failed (exit 1)."""


def _from_flags(build):
    """Mark a function that builds configs from flags: a ``ValueError``
    it raises (``ConfigError`` is one) becomes a :class:`UsageError`.
    Errors raised once a run has started are not caught."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    return wrapper


def _existing(path: str) -> str:
    """``path``, or a :class:`UsageError` naming it when it does not
    exist: a mistyped path must not read as an empty store or tree."""
    if not Path(path).exists():
        raise UsageError(f"no such file or directory: {path}")
    return path


def _defaults(args) -> ExperimentDefaults:
    return ExperimentDefaults(
        quantum_cycles=args.quantum,
        quanta=args.quanta,
        warmup_quanta=args.warmup,
        seed=args.seed,
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quantum", type=int, default=2048, help="quantum cycles")
    p.add_argument("--quanta", type=int, default=16, help="measured quanta")
    p.add_argument("--warmup", type=int, default=4, help="warmup quanta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit JSON")


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2, default=str) if args.json else text)


@_from_flags
def _fault_plan(args) -> Optional[FaultPlan]:
    """Build a FaultPlan from `--faults`/`--fault-rate`/`--fault-seed`."""
    if not args.faults:
        return None
    kinds = [k.strip() for k in args.faults.split(",") if k.strip()]
    seed = args.fault_seed if args.fault_seed is not None else args.seed
    return FaultPlan.from_kinds(kinds, rate=args.fault_rate, seed=seed)


@_from_flags
def _spec_from_args(args) -> BatchRunSpec:
    """The one run `repro run` and `repro profile snapshot` describe."""
    return BatchRunSpec(
        config=RunConfig(
            mix=args.mix, quantum_cycles=args.quantum, quanta=args.quanta,
            warmup_quanta=args.warmup, seed=args.seed, policy=args.policy,
        ),
        mode="adts" if args.adts else "fixed",
        heuristic=args.heuristic,
        thresholds=ThresholdConfig(ipc_threshold=args.threshold) if args.adts else None,
        fault_plan=_fault_plan(args),
    )


@_from_flags
def _check_runs(args, mixes: Sequence[str], heuristic: str = "type3",
                threshold: float = 2.0, fault_plan: Optional[FaultPlan] = None) -> None:
    """Build the ADTS run an experiment command makes on each mix (its run
    config, thresholds and fault plan), so a flag value they reject is a
    usage error before anything is simulated."""
    base = _defaults(args).base_run()
    thresholds = ThresholdConfig(ipc_threshold=threshold)
    for mix in mixes:
        BatchRunSpec(config=replace(base, mix=mix), mode="adts", heuristic=heuristic,
                     thresholds=thresholds, fault_plan=fault_plan)


def cmd_run(args) -> None:
    """`repro run`: one simulation (fixed or ADTS), optionally faulted."""
    spec = _spec_from_args(args)
    plan = spec.fault_plan
    result = run_spec(spec)
    if args.adts:
        text = (f"{args.mix} ADTS({args.heuristic}, thr={args.threshold}): "
                f"IPC {result.ipc:.3f}, {result.scheduler.get('switches', 0)} switches, "
                f"P(benign) {result.scheduler.get('benign_probability', 0.0):.2f}")
        if plan is not None:
            text += (f"\nfaults injected: {result.scheduler.get('faults_injected', 0)} "
                     f"{result.scheduler.get('fault_counts', {})}\n"
                     f"watchdog: {result.scheduler.get('fallback_events', 0)} fallback(s), "
                     f"{result.scheduler.get('implausible_quanta', 0)} implausible quanta, "
                     f"{result.scheduler.get('safe_mode_quanta', 0)} safe-mode quanta")
    else:
        text = f"{args.mix} fixed {args.policy}: IPC {result.ipc:.3f}"
        if plan is not None:
            text += (f"\nfaults injected: {result.scheduler.get('faults_injected', 0)} "
                     f"{result.scheduler.get('fault_counts', {})}")
    _emit(args, {"ipc": result.ipc, **result.scheduler}, text)


def cmd_table1(args) -> None:
    """`repro table1`: the ten fixed policies, ranked."""
    _check_runs(args, _defaults(args).mixes(not args.full))
    out = experiment_table1(_defaults(args), quick=not args.full)
    rows = [[r["policy"], r["mean_ipc"]] for r in out["rows"]]
    _emit(args, out, format_table(["policy", "mean_ipc"], rows, "Table 1"))


def _install_pool_signal_handlers(executor, journal) -> None:
    """SIGINT/SIGTERM: kill the worker pool, unlock the journal, exit
    ``128 + signum`` — the conventional died-on-signal code, distinct from
    both success (0) and ordinary failure (1)."""

    def _bail(signum: int, _frame) -> None:
        print(f"signal {signum}: terminating worker pool", file=sys.stderr)
        executor.shutdown()
        if journal is not None:
            journal.close()
        # os._exit, not sys.exit: the handler runs at an arbitrary interrupt
        # point, and a SystemExit raised inside an exception-ignoring context
        # (a __del__, multiprocessing's spawn-time logging lock, ...) is
        # printed and swallowed — the grid would then run to completion and
        # exit 0 despite the signal. All teardown already happened above, so
        # a hard exit loses nothing.
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(128 + signum)

    signal.signal(signal.SIGINT, _bail)
    signal.signal(signal.SIGTERM, _bail)


@_from_flags
def _check_grid_flags(args) -> None:
    """Reject `repro grid` flag values the sweep cannot honour."""
    if args.workers < 1 and (args.retries > 1 or args.run_timeout is not None
                             or args.heartbeat_timeout is not None):
        raise ValueError(
            "--retries, --run-timeout and --heartbeat-timeout are enforced "
            "by the supervised executor: add --workers N (N >= 1)"
        )
    if args.batch < 0:
        raise ConfigError("batch", args.batch, ">= 0 (0 = one batch per mix)")


def cmd_grid(args) -> None:
    """`repro grid`: the Figure 7/8 sweep on the detailed engine."""
    _check_grid_flags(args)
    defaults = _defaults(args)
    plan = _fault_plan(args)
    mixes = [m.strip() for m in args.mixes.split(",") if m.strip()] if args.mixes else None
    _check_runs(args, mixes or defaults.mixes(not args.full), fault_plan=plan)
    journal = None
    if args.journal:
        journal = RunJournal(args.journal)
        if args.resume:
            info = journal.recover()
            msg = f"resuming: {info['loaded']} journaled cell(s) will be skipped"
            if info["torn_tail"]:
                msg += "; torn final line truncated"
            if info["dropped"]:
                msg += (f"; {info['dropped']} corrupt line(s) dropped"
                        f" (original quarantined to {info['quarantined']})")
            print(msg, file=sys.stderr)
        else:
            journal.clear()
    executor = None
    if args.workers > 0:
        from repro.harness.executor import ExecutorConfig, SupervisedExecutor

        executor = SupervisedExecutor(ExecutorConfig(
            workers=args.workers,
            run_timeout_s=args.run_timeout,
            heartbeat_timeout_s=args.heartbeat_timeout,
            max_restarts=max(0, args.retries - 1),
        ))
        _install_pool_signal_handlers(executor, journal)
    # A disk-fault plan installs a parent-process faultfs session too, so the
    # journal appends that happen *between* cell runs are exercised — not
    # just the writes inside each simulation.
    from repro.storage.faultfs import faultfs_session

    with faultfs_session(plan) as ffs:
        grid = run_grid(defaults, quick=not args.full, journal=journal,
                        executor=executor, mixes=mixes, fault_plan=plan,
                        batch=args.batch or None)
        if executor is not None and executor.failures:
            print(f"supervisor: {len(executor.failures)} failed attempt(s): " +
                  ", ".join(f"{f['label']}#{f['attempt']}:{f['kind']}"
                            for f in executor.failures),
                  file=sys.stderr)
        table1 = experiment_table1(defaults, policies=("icount",), mixes=grid.mixes)
        baseline = table1["mean_ipc"]["icount"]
    if ffs is not None:
        print(f"disk faults injected (parent process): {ffs.faults_injected} "
              f"{ffs.counts}", file=sys.stderr)
    if journal is not None and journal.append_errors:
        print(f"journal: {journal.append_errors} append(s) failed durably; "
              f"those cells will re-run on a later resume", file=sys.stderr)
    out = experiment_fig8(grid, baseline)
    lines = [f"fixed ICOUNT baseline: {baseline:.3f}"]
    for h in grid.heuristics:
        lines.append(format_series(f"IPC[{h}]", grid.thresholds, out["ipc_vs_threshold"][h]))
        lines.append(format_series(
            f"switches[{h}]", grid.thresholds, grid.series_switches_vs_threshold(h)))
    best = out["best_cell"]
    lines.append(f"best cell: m={best['threshold']:g} {best['heuristic']} "
                 f"({out['best_improvement_over_icount']:+.1%} vs ICOUNT)")
    _emit(args, out, "\n".join(lines))


@_from_flags
def _check_fast_quanta(quanta: int) -> None:
    """Reject a fast-model run length that would average no quanta."""
    if quanta < 1:
        raise ConfigError("fast_quanta", quanta, ">= 1")


def cmd_fastgrid(args) -> None:
    """`repro fastgrid`: the 13-mix grid on the fast model."""
    from repro.fastmodel.model import GRID_HEURISTICS, GRID_THRESHOLDS, fast_grid

    _check_fast_quanta(args.fast_quanta)
    grid = fast_grid(args.fast_quanta)
    icount = grid.fixed["icount"]
    lines = [f"fixed ICOUNT (13-mix mean, fast model): {icount:.3f}"]
    cells = {}
    for h in GRID_HEURISTICS:
        ys = [grid.ipc[(m, h)] for m in GRID_THRESHOLDS]
        cells.update({f"{m:g},{h}": y for m, y in zip(GRID_THRESHOLDS, ys)})
        lines.append(format_series(f"IPC[{h}]", (1, 2, 3, 4, 5), ys))
    _emit(args, {"icount": icount, "cells": cells}, "\n".join(lines))


def cmd_headline(args) -> None:
    """`repro headline`: ADTS best cell vs fixed ICOUNT, two runs per mix
    (Table 1's ICOUNT row and a one-cell grid)."""
    defaults = _defaults(args)
    _check_runs(args, defaults.mixes(not args.full), args.heuristic, args.threshold)
    table1 = experiment_table1(defaults, quick=not args.full, policies=("icount",))
    cell = replace(defaults, thresholds=(args.threshold,), heuristics=(args.heuristic,))
    grid = run_grid(cell, quick=not args.full)
    out = experiment_headline(table1, grid, threshold=args.threshold,
                              heuristic=args.heuristic)
    rows = [[m, v["icount_ipc"], v["adts_ipc"], f"{v['improvement']:+.1%}"]
            for m, v in out["per_mix"].items()]
    text = format_table(["mix", "icount", "adts", "gain"], rows, "Headline") + \
        f"\nmean improvement: {out['mean_improvement']:+.2%}"
    _emit(args, out, text)


def cmd_resilience(args) -> None:
    """`repro resilience`: ADTS under a seeded fault storm vs. clean."""
    storm = _from_flags(FaultPlan.storm)(seed=args.fault_seed, rate=args.fault_rate)
    _check_runs(args, [args.mix], args.heuristic, args.threshold, storm)
    out = experiment_resilience(
        _defaults(args), mix=args.mix, threshold=args.threshold,
        heuristic=args.heuristic, fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
    )
    text = (
        f"{args.mix} clean IPC {out['clean_ipc']:.3f} -> "
        f"faulty IPC {out['faulty_ipc']:.3f} "
        f"(degradation {out['ipc_degradation']:.1%})\n"
        f"faults injected: {out['faults_injected']} {out['fault_counts']}\n"
        f"watchdog: {out['fallback_events']} fallback(s), "
        f"{out['implausible_quanta']} implausible quanta, "
        f"{out['safe_mode_quanta']} safe-mode quanta, "
        f"{out['missed_decisions']} missed decisions"
    )
    _emit(args, out, text)


def _autoscaler_config(args):
    """Build an AutoscalerConfig from ``--autoscale MIN:MAX`` (or None)."""
    if not getattr(args, "autoscale", None):
        return None
    from repro.service.autoscale import AutoscalerConfig

    try:
        lo, hi = (int(part) for part in args.autoscale.split(":"))
    except ValueError:
        raise ValueError(
            f"--autoscale expects MIN:MAX (got {args.autoscale!r})"
        ) from None
    return AutoscalerConfig(
        min_workers=lo,
        max_workers=hi,
        cooldown_s=args.autoscale_cooldown,
    )


def _service_config(args):
    from repro.service.service import ServiceConfig

    return ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        per_client_cap=args.per_client_cap,
        degrade_at_depth=args.degrade_at,
        max_attempts=args.max_attempts,
        breaker_failures=args.breaker_failures,
        breaker_cooldown_s=args.breaker_cooldown,
        run_timeout_s=args.run_timeout,
        heartbeat_timeout_s=args.heartbeat_timeout,
        drain_deadline_s=args.drain_deadline,
        fault_plan=_fault_plan(args),
        autoscaler=_autoscaler_config(args),
    )


@_from_flags
def _build_service(args, clock=None):
    """The service front door: ``--shards`` shards (one by default), a
    result store only with ``--result-store``, and shadow verification or
    the dead-letter queue only when ``--verify-rate`` / ``--dlq`` ask."""
    from repro.service.router import ShardedService

    kwargs = {"clock": clock} if clock is not None else {}
    return ShardedService(
        _service_config(args),
        shards=max(1, getattr(args, "shards", 1)),
        store=getattr(args, "result_store", None),
        verify_rate=getattr(args, "verify_rate", 0.0),
        verify_seed=getattr(args, "seed", 0),
        dlq_threshold=getattr(args, "dlq", 0),
        **kwargs,
    )


def _profile_store(args):
    """The `--profile DIR` store, or None when profiling is off."""
    path = getattr(args, "profile", None)
    if not path:
        return None
    from repro.behavior.store import ProfileStore

    return ProfileStore(path)


def _arm_drift_guard(service, args):
    """Wire `--profile` into a service (``arm_drift_guard``, with
    ``--drift-degrade``). Returns the store (None when profiling is off)."""
    store = _profile_store(args)
    if store is not None:
        from repro.behavior.guard import arm_drift_guard

        arm_drift_guard(service, store, degrade_on_drift=args.drift_degrade)
    return store


def _snapshot_service_profile(store, service, args, default_label,
                              breakdown=None) -> None:
    """Capture the drained service's behaviour into the profile store,
    labelled ``--profile-label`` or else ``default_label``."""
    if store is None:
        return
    from repro.behavior.profile import profile_from_service

    profile = profile_from_service(
        service,
        getattr(args, "profile_label", None) or default_label,
        seed=getattr(args, "seed", None),
        breakdown=breakdown,
    )
    profile_id = store.save(profile)
    print(f"behaviour profile saved: {profile_id}", file=sys.stderr)


def cmd_serve(args) -> int:
    """`repro serve`: the long-running overload-safe simulation service.

    Speaks JSON lines on stdin/stdout (see :mod:`repro.service.server`).
    SIGTERM/SIGINT — or ``{"op": "shutdown"}``, or EOF — drains gracefully:
    admission stops, in-flight work finishes within the drain deadline
    (stragglers are killed and answered degraded or failed), every
    accepted request gets its response, and the process exits 0. Requests
    go through the service front door: they route by deterministic
    identity across ``--shards N`` shards (one by default), identical
    in-flight requests coalesce onto one leader, and full-fidelity answers
    persist in the ``--result-store`` directory (when given) for instant
    byte-identical repeats across restarts.
    """
    from repro.service.server import ServeLoop

    service = _build_service(args)
    store = _arm_drift_guard(service, args)
    code = ServeLoop(
        service,
        drain_deadline_s=args.drain_deadline,
        record_path=args.record,
    ).run()
    _snapshot_service_profile(store, service, args, "serve")
    return code


def cmd_burst(args) -> None:
    """`repro burst`: the deterministic overload demo.

    Default mode submits a seeded burst to an in-process service — paused
    during submission so the (admitted, degraded, shed, rejected) breakdown
    depends only on queue state, never on timing — then runs it to
    completion and prints the breakdown. ``--emit`` instead prints the
    burst as JSONL submit lines, for piping into a running ``repro serve``.
    """
    from dataclasses import asdict

    from repro.service.loadgen import (
        BurstSpec,
        breakdown,
        generate_burst,
        replay_session,
    )

    spec = _from_flags(BurstSpec)(
        requests=args.requests,
        seed=args.seed,
        degradable_fraction=args.degradable_fraction,
        expired_fraction=args.expired_fraction,
        quanta=args.quanta,
        warmup_quanta=args.warmup,
        quantum_cycles=args.quantum,
        num_threads=args.threads,
    )
    requests = generate_burst(spec)
    if args.emit:
        # Header first: the full generating spec rides with the output, so
        # a burst file is reproducible (and re-generatable) from itself.
        # `repro serve` acknowledges the meta line and moves on.
        print(json.dumps(
            {"op": "meta", "kind": "burst-spec", "spec": asdict(spec)},
            sort_keys=True))
        for request in requests:
            print(json.dumps({"op": "submit", "request": asdict(request)}))
        return
    service = _build_service(args)
    service.paused = True
    for request in requests:
        service.submit(request)
    service.paused = False
    responses, stats = replay_session(
        service, [], None, drain_deadline_s=args.drain_deadline)
    bd = breakdown(responses)
    print(json.dumps(
        {"spec": asdict(spec), "breakdown": bd, "counters": stats["counters"],
         "breaker": stats["breaker"]},
        indent=2, default=str))


def cmd_replay(args) -> int:
    """`repro replay`: drive recorded or shaped traffic into a service.

    Input is either a ``traffic-recording`` artifact (captured with
    ``repro serve --record``) or, with ``--shape``, a freshly generated
    seeded traffic model. With ``--workers 0`` (the default) the replay
    runs in lockstep under a virtual clock and the printed breakdown is a
    pure function of (input, seed, service config); with real workers it
    is paced by the wall clock (``--time-scale`` compresses it).
    """
    from repro.service.loadgen import (
        TrafficSpec,
        VirtualClock,
        breakdown,
        generate_traffic,
        load_recording,
        replay_session,
    )

    if args.recording:
        events = load_recording(_existing(args.recording))
        source = {"recording": args.recording, "events": len(events)}
    else:
        spec = _from_flags(TrafficSpec)(
            shape=args.shape,
            requests=args.requests,
            duration_s=args.duration,
            seed=args.seed,
        )
        events = generate_traffic(spec)
        source = {"shape": args.shape, "events": len(events), "seed": args.seed}
    clock = VirtualClock(args.tick) if args.workers == 0 else None
    service = _build_service(args, clock=clock)
    store = _arm_drift_guard(service, args)
    responses, stats = replay_session(
        service, events, clock, drain_deadline_s=args.drain_deadline,
        time_scale=args.time_scale,
    )
    bd = breakdown(responses)
    _snapshot_service_profile(store, service, args, f"replay-{args.shape}",
                              breakdown=bd)
    print(json.dumps(
        {"source": source, "breakdown": bd,
         "counters": stats["counters"], "autoscaler": stats["autoscaler"]},
        indent=2, default=str))
    return 0


def cmd_chaosday(args) -> int:
    """`repro chaosday`: the combined-fault campaign (see
    :mod:`repro.harness.chaosday`). Exits 0 iff the drain contract held
    and the post-run fsck quarantined nothing."""
    from repro.harness.chaosday import CampaignConfig, format_report, run_campaign

    if args.recording:
        _existing(args.recording)
    cfg = _from_flags(CampaignConfig)(
        seed=args.seed,
        shape=args.shape,
        requests=args.requests,
        duration_s=args.duration,
        recording=args.recording,
        fault_rate=args.fault_rate,
        workers=args.workers,
        shards=args.shards,
        verify_rate=args.verify_rate,
        dlq_threshold=args.dlq,
        corrupt_rate=args.corrupt_rate,
        autoscale_min=args.autoscale_min,
        autoscale_max=args.autoscale_max,
        tick_s=args.tick,
        time_scale=args.time_scale,
        drain_deadline_s=args.drain_deadline,
        profile_store=args.profile,
        profile_label=args.profile_label,
    )
    report, exit_code = run_campaign(cfg, args.out)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(format_report(report))
        print(f"report: {args.out}/campaign.json", file=sys.stderr)
    return exit_code


def cmd_scaling(args) -> None:
    """`repro scaling`: throughput vs thread count."""
    _check_runs(args, [args.mix])
    out = experiment_thread_scaling(_defaults(args), mix=args.mix)
    rows = [[r["threads"], r["icount_ipc"], r["adts_ipc"]] for r in out["rows"]]
    _emit(args, out, format_table(["threads", "icount", "adts"], rows, "Scaling"))


def cmd_oracle(args) -> None:
    """`repro oracle`: clairvoyant per-quantum upper bound."""
    from repro import build_processor
    from repro.core.oracle import oracle_upper_bound

    _check_runs(args, [args.mix])

    def make():
        return build_processor(mix=args.mix, seed=args.seed,
                               quantum_cycles=args.quantum)

    out = oracle_upper_bound(make, quanta=args.quanta)
    text = (f"oracle {out['oracle_ipc']:.3f} vs fixed ICOUNT "
            f"{out['fixed_icount_ipc']:.3f} (headroom {out['headroom']:+.2%}); "
            f"usage {out['policy_usage']}")
    _emit(args, out, text)


def cmd_fsck(args) -> int:
    """`repro fsck`: audit and repair an artifact tree.

    Scans ``root`` for journals, result stores, reports and profiles;
    repairs what is safely repairable (torn journal tails truncated,
    stale atomic-write temps and dead leases removed) and quarantines
    unrepairable files to ``*.corrupt``. Exits non-zero iff something
    was quarantined, so scripts can gate on real damage. ``--dry-run``
    classifies without touching disk. A root that does not exist is a
    usage error (exit 2): a mistyped path must not pass the audit.
    """
    from repro.storage.fsck import fsck_tree

    report = fsck_tree(_existing(args.root), repair=not args.dry_run)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return report.exit_code


def cmd_dlq(args) -> int:
    """`repro dlq`: manage the poison-pill dead-letter queue.

    ``list`` shows every parked identity with its refusal reason and
    strike count; ``retry DIGEST`` un-parks one identity so its next
    submission simulates again (e.g. after an engine fix); ``purge``
    drops every entry. Operates on the DLQ directory under a result
    store (``<store>/dlq``), the same one a front door started with
    ``--result-store`` uses — entries parked by a service are visible
    here after it exits, and retries here are honored by the next one.
    A store that does not exist is a usage error (exit 2).
    """
    from repro.service.dlq import DeadLetterQueue

    root = Path(_existing(args.store)) / "dlq"
    dlq = DeadLetterQueue(root)
    if args.action == "list":
        entries = dlq.entries()
        if args.json:
            print(json.dumps({"root": str(root), "entries": entries},
                             indent=2, sort_keys=True, default=str))
        elif not entries:
            print(f"dlq empty ({root})")
        else:
            for e in entries:
                print(f"{e['identity']}  {e.get('reason', '?')}  "
                      f"strikes={len(e.get('attempts', []))}")
        return 0
    if args.action == "retry":
        if not args.digest:
            print("retry requires a DIGEST", file=sys.stderr)
            return 2
        ok = dlq.retry(args.digest)
        print(f"{'retried' if ok else 'not parked'}: {args.digest}")
        return 0 if ok else 1
    removed = dlq.purge()
    print(f"purged {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def cmd_profile_snapshot(args) -> int:
    """`repro profile snapshot`: run one simulation and capture its
    behaviour (counters, switch telemetry, watchdog/fault counters) as a
    labelled profile artifact. The profile id is content-addressed, so the
    same seed and config always produce the same id, byte-identically —
    and `--faults` perturbations move the id and the metrics with it. The
    identity's ``config_digest`` is the run's key (its ``run_fields``
    digest), so it covers the threshold and the fault plan's seed too."""
    from repro.behavior.profile import profile_from_sim
    from repro.behavior.store import ProfileStore

    spec = _spec_from_args(args)
    result = run_spec(spec)
    profile = profile_from_sim(
        {"ipc": result.ipc, **result.scheduler},
        args.label,
        seed=args.seed,
        config_fields=run_fields(spec),
        window={"quanta": args.quanta, "warmup_quanta": args.warmup},
    )
    store = ProfileStore(args.store)
    profile_id = store.save(profile)
    if args.baseline:
        store.set_baseline(profile_id)
    print(profile_id)
    return 0


def cmd_profile_import(args) -> int:
    """`repro profile import`: convert chaos-campaign reports (or
    profiles, under a new label) into behaviour-profile artifacts."""
    from repro.behavior.store import ProfileStore
    from repro.storage.errors import ArtifactError

    store = ProfileStore(args.store)
    code = 0
    for path in args.paths:
        try:
            profile_id = store.import_report(path, args.label)
        except (OSError, ArtifactError, ValueError) as exc:
            print(f"SKIP {path}: {exc}", file=sys.stderr)
            code = 1
        else:
            print(f"{path} -> {profile_id}")
    return code


def cmd_profile_list(args) -> int:
    """`repro profile list`: inventory of the store (`*` = baseline). A
    store that does not exist is a usage error (exit 2)."""
    from repro.behavior.store import ProfileStore

    entries = ProfileStore(_existing(args.store)).list_profiles()
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True, default=str))
        return 0
    if not entries:
        print(f"no profiles in {args.store}")
        return 0
    for e in entries:
        mark = "*" if e.get("baseline") else " "
        if "error" in e:
            print(f"{mark} {e['id']}  UNREADABLE: {e['error']}")
        else:
            print(f"{mark} {e['id']}  source={e['source']} "
                  f"metrics={e['metrics']} seed={e['seed']}")
    return 0


def cmd_profile_baseline(args) -> int:
    """`repro profile baseline`: designate the store's baseline."""
    from repro.behavior.store import ProfileStore

    try:
        ProfileStore(args.store).set_baseline(args.id)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"baseline -> {args.id}")
    return 0


def cmd_profile_drift(args) -> int:
    """`repro profile drift`: compare a profile against the baseline.

    Exits 0 on `ok`, 1 on `drift` (or on `warn` with `--fail-on-warn`);
    the report is deterministic — the same pair of profiles always prints
    the same bytes."""
    from repro.behavior.drift import DriftConfig, compute_drift
    from repro.behavior.store import ProfileStore
    from repro.storage.errors import ArtifactError

    store = ProfileStore(args.store)
    try:
        current = store.load(args.id)
        baseline_id = args.baseline or store.baseline_id()
        if baseline_id is None:
            print("no baseline designated (run `repro profile baseline ID` "
                  "first, or pass --baseline ID)", file=sys.stderr)
            return 2
        baseline = store.load(baseline_id)
    except (OSError, ArtifactError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    kwargs = {}
    if args.rel_tol is not None:
        kwargs["rel_tol"] = args.rel_tol
    if args.abs_floor is not None:
        kwargs["abs_floor"] = args.abs_floor
    if args.ignore:
        kwargs["ignore"] = tuple(
            frag.strip() for frag in args.ignore.split(",") if frag.strip()
        )
    report = compute_drift(baseline, current, DriftConfig(**kwargs))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    failed = report.verdict == "drift" or (
        args.fail_on_warn and report.verdict == "warn"
    )
    return 1 if failed else 0


def cmd_mixes(args) -> None:
    """`repro mixes`: list the 13 mixes."""
    rows = [[m.name, m.int_count, m.fp_count, f"{m.similarity():.2f}", m.description]
            for m in MIXES]
    payload = {m.name: {"apps": m.apps, "description": m.description} for m in MIXES}
    _emit(args, payload,
          format_table(["mix", "int", "fp", "similarity", "description"], rows))


def cmd_policies(args) -> None:
    """`repro policies`: list the Table-1 policies."""
    _emit(args, {"policies": POLICY_NAMES}, "\n".join(POLICY_NAMES))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ADTS/SMT reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one simulation run")
    p.add_argument("mix", nargs="?", default="mix07")
    p.add_argument("--policy", default="icount", choices=POLICY_NAMES)
    p.add_argument("--adts", action="store_true")
    p.add_argument("--heuristic", default="type3")
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--faults", default=None, metavar="KINDS",
                   help="inject seeded faults: comma list of "
                        "counters,dt,policy,hangs (or 'all')")
    p.add_argument("--fault-rate", type=float, default=0.25,
                   help="per-quantum-boundary fault probability")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="fault-stream seed (default: the run seed)")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    for name, func, extra in (
        ("table1", cmd_table1, ()),
        ("grid", cmd_grid, ("--journal",)),
        ("headline", cmd_headline, ("--threshold", "--heuristic")),
        ("scaling", cmd_scaling, ("mix",)),
        ("oracle", cmd_oracle, ("mix",)),
    ):
        p = sub.add_parser(name, help=f"{name} experiment")
        if "mix" in extra:
            p.add_argument("mix", nargs="?", default="mix05")
        if "--threshold" in extra:
            p.add_argument("--threshold", type=float, default=2.0)
            p.add_argument("--heuristic", default="type3")
        if "--journal" in extra:
            p.add_argument("--journal", default=None, metavar="PATH",
                           help="JSONL run journal; with --resume, "
                                "journaled cells are skipped")
            p.add_argument("--resume", action="store_true",
                           help="skip cells already in the journal")
            p.add_argument("--retries", type=int, default=1,
                           help="attempts per batch before giving up "
                                "(needs --workers)")
            p.add_argument("--run-timeout", type=float, default=None,
                           help="per-batch-attempt wall-clock budget in "
                                "seconds (needs --workers)")
            p.add_argument("--workers", type=int, default=0, metavar="N",
                           help="run batches in N supervised child processes "
                                "(0 = in-process)")
            p.add_argument("--heartbeat-timeout", type=float, default=None,
                           help="kill a worker whose last heartbeat (one per "
                                "batch-engine quantum step) is older than "
                                "this many seconds (needs --workers)")
            p.add_argument("--batch", type=int, default=0, metavar="N",
                           help="simulate N cells per lockstep batch-engine "
                                "pass (0 = one batch per mix); bit-identical "
                                "results, per-cell journal keys — any batch "
                                "size resumes any other")
            p.add_argument("--mixes", default=None, metavar="M1,M2",
                           help="comma list of mixes (overrides quick/full)")
            p.add_argument("--faults", default=None, metavar="KINDS",
                           help="inject seeded faults into the sweep: comma "
                                "list from counters,dt,policy,hangs,worker,"
                                "disk (or 'all'); 'disk' exercises the "
                                "storage layer without changing results")
            p.add_argument("--fault-rate", type=float, default=0.25,
                           help="per-draw fault probability")
            p.add_argument("--fault-seed", type=int, default=None,
                           help="fault-stream seed (default: the run seed)")
        p.add_argument("--full", action="store_true",
                       help="all 13 mixes (slow) instead of the quick set")
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("resilience", help="ADTS under a seeded fault storm")
    p.add_argument("mix", nargs="?", default="mix05")
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--heuristic", default="type3")
    p.add_argument("--fault-rate", type=float, default=0.35)
    p.add_argument("--fault-seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser("fastgrid", help="full grid on the fast model")
    p.add_argument("--fast-quanta", type=int, default=96)
    _add_common(p)
    p.set_defaults(func=cmd_fastgrid)

    def _add_service_opts(p: argparse.ArgumentParser, workers: int) -> None:
        p.add_argument("--workers", type=int, default=workers, metavar="N",
                       help="supervised full-fidelity worker processes "
                            "(0 = run the full tier inline)")
        p.add_argument("--queue-capacity", type=int, default=16,
                       help="admission queue bound")
        p.add_argument("--per-client-cap", type=int, default=None,
                       help="max queued jobs per client (default: half the "
                            "queue capacity)")
        p.add_argument("--degrade-at", type=int, default=None, metavar="DEPTH",
                       help="queue depth at which degradable requests are "
                            "served by the fast model (default: capacity)")
        p.add_argument("--max-attempts", type=int, default=1,
                       help="full-tier attempts per request before fallback")
        p.add_argument("--breaker-failures", type=int, default=3,
                       help="consecutive failures that open the breaker")
        p.add_argument("--breaker-cooldown", type=float, default=5.0,
                       help="seconds before an open breaker half-opens")
        p.add_argument("--run-timeout", type=float, default=None,
                       help="per-attempt wall-clock budget in seconds")
        p.add_argument("--heartbeat-timeout", type=float, default=None,
                       help="kill a worker whose last heartbeat is older "
                            "than this many seconds")
        p.add_argument("--drain-deadline", type=float, default=10.0,
                       help="graceful-drain budget in seconds")
        p.add_argument("--faults", default=None, metavar="KINDS",
                       help="service chaos hooks: comma list including "
                            "'service' (overload + breaker-trip draws)")
        p.add_argument("--fault-rate", type=float, default=0.25)
        p.add_argument("--fault-seed", type=int, default=None)
        p.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                       help="scale the worker pool between MIN and MAX on "
                            "queue depth / deadline misses / breaker state")
        p.add_argument("--autoscale-cooldown", type=float, default=0.5,
                       help="minimum seconds between scale events")
        p.add_argument("--shards", type=int, default=1, metavar="N",
                       help="route requests by identity across N shard "
                            "services behind the front door (default 1); "
                            "identical in-flight requests coalesce at any N")
        p.add_argument("--result-store", default=None, metavar="DIR",
                       help="content-addressed durable result store; "
                            "repeated requests are answered from disk, "
                            "byte-identical, across restarts. Keys carry "
                            "no code version: do not reuse a store across "
                            "a change to simulated results. Entries whose "
                            "identity was re-keyed stay on disk, "
                            "unreachable; nothing prunes them")
        p.add_argument("--verify-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="shadow-verify this seeded fraction of served "
                            "full-fidelity results by re-executing them on "
                            "another shard; divergent results are "
                            "quarantined and re-run best-2-of-3")
        p.add_argument("--dlq", type=int, default=0, metavar="STRIKES",
                       help="park an identity in the dead-letter queue "
                            "after this many engine failures across "
                            "retries and shards; parked identities get an "
                            "immediate dlq-parked:<kind> refusal "
                            "(0 disables)")
        p.add_argument("--seed", type=int, default=0)

    def _add_profile_opts(p: argparse.ArgumentParser,
                          guard: bool = False) -> None:
        p.add_argument("--profile", default=None, metavar="DIR",
                       help="behaviour-profile store: snapshot this run's "
                            "behaviour into DIR at exit; when DIR has a "
                            "designated baseline, also run a rolling "
                            "DriftGuard against it")
        p.add_argument("--profile-label", default=None, metavar="LABEL",
                       help="label for the captured profile (default: "
                            "derived from the command)")
        if guard:
            p.add_argument("--drift-degrade", action="store_true",
                           help="while the drift guard holds sustained "
                                "drift, serve degradable requests with the "
                                "fast model (answered exactly once, never "
                                "dropped)")

    p = sub.add_parser("serve",
                       help="overload-safe simulation service (JSONL stdio)")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="capture the submitted request stream (with arrival "
                        "offsets) as a traffic-recording artifact at drain, "
                        "for later `repro replay`")
    _add_service_opts(p, workers=2)
    _add_profile_opts(p, guard=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("replay",
                       help="replay recorded or shaped traffic into a service")
    p.add_argument("recording", nargs="?", default=None,
                   help="traffic-recording artifact (from `repro serve "
                        "--record`); omit to generate --shape traffic")
    p.add_argument("--shape", default="diurnal",
                   choices=("uniform", "diurnal", "bursty", "ramp"),
                   help="synthetic traffic model when no recording is given")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--duration", type=float, default=30.0,
                   help="virtual length of generated traffic, seconds")
    p.add_argument("--tick", type=float, default=0.05,
                   help="virtual-clock step per replay iteration (workers=0)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="arrival-time multiplier (0.1 = 10x faster)")
    _add_service_opts(p, workers=0)
    _add_profile_opts(p, guard=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("chaosday",
                       help="combined-fault campaign against replayed traffic")
    p.add_argument("--out", default="chaosday-out", metavar="DIR",
                   help="campaign artifact directory (result store, "
                        "traffic, report)")
    p.add_argument("--recording", default=None, metavar="PATH",
                   help="replay this traffic-recording instead of generating")
    p.add_argument("--shape", default="diurnal",
                   choices=("uniform", "diurnal", "bursty", "ramp"))
    p.add_argument("--requests", type=int, default=120)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--fault-rate", type=float, default=0.1,
                   help="shared rate for the service and disk fault families")
    p.add_argument("--workers", type=int, default=0,
                   help="0 = deterministic inline lockstep (default); N > 0 "
                        "= real supervised pool (adds worker crash/hang "
                        "faults, wall-clock paced)")
    p.add_argument("--shards", type=int, default=1,
                   help="shards behind the front door; > 1 also adds a "
                        "result store at OUT/resultstore under disk faults")
    p.add_argument("--verify-rate", type=float, default=0.0,
                   help="shadow-verification sampling rate (> 0 also "
                        "adds the result store)")
    p.add_argument("--dlq", type=int, default=0, metavar="STRIKES",
                   help="dead-letter-queue parking threshold (0 disables; "
                        "> 0 also adds the result store)")
    p.add_argument("--corrupt-rate", type=float, default=0.0,
                   help="inject seeded silent corruption into this "
                        "fraction of served results; the campaign then "
                        "passes only if verification caught every event")
    p.add_argument("--autoscale-min", type=int, default=1)
    p.add_argument("--autoscale-max", type=int, default=4)
    p.add_argument("--tick", type=float, default=0.05)
    p.add_argument("--time-scale", type=float, default=1.0)
    p.add_argument("--drain-deadline", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the full campaign report JSON")
    _add_profile_opts(p)
    p.set_defaults(func=cmd_chaosday)

    p = sub.add_parser("burst", help="seeded overload demo")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--degradable-fraction", type=float, default=0.8)
    p.add_argument("--expired-fraction", type=float, default=0.1)
    p.add_argument("--quanta", type=int, default=2)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--quantum", type=int, default=256)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--emit", action="store_true",
                   help="print the burst as JSONL submit lines (for piping "
                        "into `repro serve`) instead of running the demo")
    _add_service_opts(p, workers=2)
    p.set_defaults(func=cmd_burst)

    p = sub.add_parser("dlq", help="manage the poison-pill dead-letter queue")
    p.add_argument("action", choices=("list", "retry", "purge"),
                   help="list parked identities, un-park one, or drop all")
    p.add_argument("digest", nargs="?", default=None,
                   help="identity digest (required for retry)")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="result-store directory whose dlq/ to manage")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable listings")
    p.set_defaults(func=cmd_dlq)

    p = sub.add_parser("fsck", help="audit and repair an artifact tree")
    p.add_argument("root", nargs="?", default=".",
                   help="directory (or single file) to scan")
    p.add_argument("--dry-run", action="store_true",
                   help="classify only; change nothing on disk")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("profile",
                       help="behaviour profiles: snapshot, baseline, drift")
    psub = p.add_subparsers(dest="action", required=True)

    ps = psub.add_parser("snapshot",
                         help="run one simulation and capture its behaviour")
    ps.add_argument("--store", required=True, metavar="DIR",
                    help="profile store directory")
    ps.add_argument("--label", required=True,
                    help="profile label (id = label-<digest>)")
    ps.add_argument("--mix", default="mix07")
    ps.add_argument("--policy", default="icount", choices=POLICY_NAMES)
    ps.add_argument("--adts", action="store_true")
    ps.add_argument("--heuristic", default="type3")
    ps.add_argument("--threshold", type=float, default=2.0)
    ps.add_argument("--faults", default=None, metavar="KINDS",
                    help="seeded fault injection (the drift-demo knob): "
                         "comma list of counters,dt,policy,hangs or 'all'")
    ps.add_argument("--fault-rate", type=float, default=0.25)
    ps.add_argument("--fault-seed", type=int, default=None)
    ps.add_argument("--baseline", action="store_true",
                    help="designate the captured profile as the baseline")
    _add_common(ps)
    ps.set_defaults(func=cmd_profile_snapshot)

    ps = psub.add_parser("import",
                         help="convert campaign reports into profiles")
    ps.add_argument("paths", nargs="+", metavar="PATH",
                    help="chaos-campaign report or behaviour profile")
    ps.add_argument("--store", required=True, metavar="DIR")
    ps.add_argument("--label", default=None,
                    help="override the label (default: the file stem)")
    ps.set_defaults(func=cmd_profile_import)

    ps = psub.add_parser("list", help="inventory the profile store")
    ps.add_argument("--store", required=True, metavar="DIR")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_profile_list)

    ps = psub.add_parser("baseline",
                         help="designate a profile as the store baseline")
    ps.add_argument("id", help="profile id (see `repro profile list`)")
    ps.add_argument("--store", required=True, metavar="DIR")
    ps.set_defaults(func=cmd_profile_baseline)

    ps = psub.add_parser("drift",
                         help="compare a profile against the baseline")
    ps.add_argument("id", help="profile id to judge")
    ps.add_argument("--store", required=True, metavar="DIR")
    ps.add_argument("--baseline", default=None, metavar="ID",
                    help="compare against this profile instead of the "
                         "store's designated baseline")
    ps.add_argument("--rel-tol", type=float, default=None,
                    help="relative tolerance for every metric "
                         "(default 0.05)")
    ps.add_argument("--abs-floor", type=float, default=None,
                    help="scale floor for near-zero metrics (default 1.0)")
    ps.add_argument("--ignore", default=None, metavar="FRAGS",
                    help="comma list of metric-name fragments to exclude")
    ps.add_argument("--fail-on-warn", action="store_true",
                    help="exit 1 on `warn` too, not just `drift`")
    ps.add_argument("--json", action="store_true",
                    help="print the full deterministic DriftReport")
    ps.set_defaults(func=cmd_profile_drift)

    for name, func in (("mixes", cmd_mixes), ("policies", cmd_policies)):
        p = sub.add_parser(name, help=f"list {name}")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":
    sys.exit(main())

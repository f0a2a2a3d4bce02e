"""Tracing wrappers around the program's layers, and per-layer metrics.

:class:`Instrumentation` replaces public entry points of each layer (module
functions and class methods) with wrappers that record spans into a
:class:`~bench.trace.Recorder`, and restores them on exit. It must be
installed in the parent before the executor forks: forked workers inherit
the wrappers, record their own spans from a fresh store, and write them to
the spool directory when their task ends.

The per-layer metrics partition two kinds of time, each summing to 1:

* ``<layer>.share`` — the benchmark process's wall time during the traced
  phase. The phase span is the root; what no layer span claims is
  ``unaccounted_share``.
* ``worker.<layer>_share`` — the time of every executor attempt, from
  spawn to reap. The attempt's own self time is executor cost (fork,
  pickling, pipe, reaping); the rest is the child's task.

Counts are divided by the operations the traced phase completed (quanta,
grids or requests), so they do not grow with the number of operations a
fast host fits into the phase.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from bench import trace as tr

#: Main-process metric -> the span/aggregate names it sums.
MAIN_LAYERS: Dict[str, tuple] = {
    "sim.share": ("sim.run", "batch.run"),
    "tracegen.share": ("tracegen",),
    "adts.share": ("adts",),
    "sweep.share": ("sweep.grid",),
    "executor.share": ("executor.run", "executor.pump", "executor.spawn"),
    "journal.share": ("journal.record",),
    "service.front_share": (
        "service.submit", "service.pump", "service.take", "admission.submit",
    ),
    "service.identity_share": ("service.identity",),
    "store.get_share": ("store.get",),
    "store.put_share": ("store.put",),
    "store.lease_share": ("store.lease",),
    "verify.share": ("verify",),
    "loadgen.share": ("loadgen.idle",),
    "unaccounted_share": ("unaccounted",),
}

#: Worker-attempt metric -> the span/aggregate names it sums.
WORKER_LAYERS: Dict[str, tuple] = {
    "worker.executor_share": ("executor.attempt",),
    "worker.task_share": ("worker.task",),
    "worker.sim_share": ("sim.run", "batch.run"),
    "worker.tracegen_share": ("tracegen",),
    "worker.adts_share": ("adts",),
}

#: Counts recorded by the wrappers, reported per operation (0 where a
#: workload skips the layer).
COUNTS = (
    "batch.quantum_steps",
    "batch.forks",
    "batch.trajectories",
    "executor.attempts",
    "journal.records",
    "store.gets",
    "store.puts",
    "verify.probes",
)

#: Pipeline-stage shares from the separate StageProfiler pass.
STAGES = {
    "smt.fetch_share": ("_fetch",),
    "smt.issue_share": ("_issue",),
    "smt.dispatch_share": ("_dispatch",),
    "smt.commit_share": ("_commit",),
    "smt.complete_share": ("_complete",),
    "smt.other_share": ("_drain_miss_gauges", "_syscall_drain_check"),
}

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{k: "share" for k in MAIN_LAYERS},
    **{k: "share" for k in WORKER_LAYERS},
    "tracegen.instructions": "count/op",
    **{k: "count/op" for k in COUNTS},
    "batch.dedup_ratio": "ratio",
    "store.hit_ratio": "ratio",
    "verify.extra_sim_share": "share",
    **{k: "share" for k in STAGES},
    "smt.committed": "count",
    "trace.overhead_share": "share",
    "loadgen.lateness_ms_max": "ms",
}

#: Executor task kinds the workloads run (serving cells, sweep batches).
TASK_KINDS = ("service_cell", "grid_batch")


class Instrumentation:
    """Install span-recording wrappers; restore the originals on exit."""

    def __init__(self, rec: tr.Recorder, spool: Path) -> None:
        self.rec = rec
        self.spool = Path(spool)
        self.main_pid = os.getpid()
        self._saved: List[tuple] = []
        self._attempts: Dict[tuple, int] = {}

    # -- wrapper factories ---------------------------------------------------
    def _span(self, name: str, fn: Callable, request=None, after=None) -> Callable:
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.begin(name, request(*args, **kwargs) if request else None)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, *args)
                return out
            finally:
                rec.end(i)

        return wrapper

    def _aggregate(self, name: str, fn: Callable) -> Callable:
        rec, clock = self.rec, self.rec.clock

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                rec.add(name, clock() - t0)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install -------------------------------------------------------------
    def install(self) -> "Instrumentation":
        from repro.core.adts import ADTSController
        from repro.harness import executor as ex
        from repro.harness import runner, sweep
        from repro.harness.journal import RunJournal
        from repro.service import router
        from repro.service.resultstore import ResultStore
        from repro.service.service import SimulationService
        from repro.service.verify import ShadowVerifier
        from repro.smt.batch import BatchEngine
        from repro.workloads.tracegen import TraceGenerator

        rec = self.rec
        span, patch = self._span, self._patch

        patch(TraceGenerator, "next_instruction",
              self._aggregate("tracegen", TraceGenerator.next_instruction))
        patch(ADTSController, "on_quantum_end",
              self._aggregate("adts", ADTSController.on_quantum_end))
        for fn in ("run_adts", "run_fixed"):
            patch(runner, fn, span("sim.run", getattr(runner, fn)))

        def batch_counts(_out, engine, *_):
            t = engine.telemetry
            rec.count("batch.quantum_steps", t["quantum_steps"])
            rec.count("batch.quantum_steps_sequential", t["quantum_steps_sequential"])
            rec.count("batch.forks", t["forks"])
            rec.count("batch.trajectories", t["groups_final"])

        patch(BatchEngine, "run", span("batch.run", BatchEngine.run, after=batch_counts))
        patch(sweep, "threshold_type_grid",
              span("sweep.grid", sweep.threshold_type_grid))
        patch(RunJournal, "record", span(
            "journal.record", RunJournal.record,
            after=lambda *_: rec.count("journal.records")))

        executor = ex.SupervisedExecutor
        patch(executor, "run", span("executor.run", executor.run))
        patch(executor, "spawn_attempt",
              span("executor.spawn", self._spawn_attempt(executor.spawn_attempt)))
        patch(executor, "pump", span("executor.pump", executor.pump,
                                     after=self._reaped))
        for kind in TASK_KINDS:
            fn = ex.TASK_KINDS[kind]
            self._saved.append((ex.TASK_KINDS, kind, fn))
            ex.register_task_kind(kind, self._task(fn))

        front = router.ShardedService
        patch(front, "submit", span(
            "service.submit", front.submit,
            request=lambda _self, request: request.request_id))
        patch(front, "pump", span("service.pump", front.pump))
        patch(front, "take_completed", span("service.take", front.take_completed))
        patch(router, "request_identity",
              span("service.identity", router.request_identity))
        patch(SimulationService, "submit",
              span("admission.submit", SimulationService.submit))

        def got(out, *_):
            rec.count("store.gets")
            if out is not None:
                rec.count("store.hits")

        patch(ResultStore, "get", span("store.get", ResultStore.get, after=got))
        patch(ResultStore, "put", span(
            "store.put", ResultStore.put, after=lambda *_: rec.count("store.puts")))
        for fn in ("acquire_lease", "release_lease"):
            patch(ResultStore, fn, span("store.lease", getattr(ResultStore, fn)))
        patch(ShadowVerifier, "start", span(
            "verify", ShadowVerifier.start,
            after=lambda *_: rec.count("verify.probes")))
        patch(ShadowVerifier, "on_response", span("verify", ShadowVerifier.on_response))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- executor plumbing ---------------------------------------------------
    def _spawn_attempt(self, original: Callable) -> Callable:
        """Open the attempt span and hand its id to the child about to fork."""
        rec, attempts = self.rec, self._attempts

        @functools.wraps(original)
        def spawn_attempt(executor, item, attempt=1):
            i = rec.begin_async("executor.attempt", item.label)
            attempts[(id(executor), item.result_key)] = i
            rec.fork_parent = rec.gid(i)
            try:
                return original(executor, item, attempt)
            finally:
                rec.fork_parent = tr.NO_PARENT

        return spawn_attempt

    def _reaped(self, outcomes, executor, *_) -> None:
        for out in outcomes:
            i = self._attempts.pop((id(executor), out.item.result_key), None)
            if i is not None:
                self.rec.end_async(i)
                self.rec.count("executor.attempts")

    def _task(self, original: Callable) -> Callable:
        """Child-side task wrapper: fresh store, one span, spool on exit."""
        rec, spool, main_pid = self.rec, self.spool, self.main_pid

        @functools.wraps(original)
        def task(spec, progress, checkpoint_path):
            rec.enter_child()
            i = rec.begin("worker.task")
            try:
                return original(spec, progress, checkpoint_path)
            finally:
                rec.end(i)
                if os.getpid() != main_pid:
                    rec.dump(spool / f"{rec.lane}.jsonl")

        return task

    # -- analysis ------------------------------------------------------------
    def collect(self):
        """Parent spans plus every spooled child file, merged."""
        spans, aggs, counts = tr.load(sorted(self.spool.glob("*.jsonl")))
        spans += self.rec.spans()
        aggs += self.rec.aggregates()
        for k, v in self.rec.counts.items():
            counts[k] = counts.get(k, 0) + v
        return spans, aggs, counts


def _grouped(seconds: Dict[str, float], layers: Dict[str, tuple], total: float) -> Dict[str, float]:
    unknown = set(seconds) - {n for names in layers.values() for n in names}
    if unknown:
        raise ValueError(f"spans outside every layer: {sorted(unknown)}")
    return {
        metric: (sum(seconds.get(n, 0.0) for n in names) / total if total > 0 else 0.0)
        for metric, names in layers.items()
    }


def partitions(spans, aggs, phase_gid: int):
    """Seconds per span name in the two partitions: the benchmark process
    during the traced phase, and all executor attempts."""
    children = tr.children_of(spans)
    phase = next(s for s in spans if s.gid == phase_gid)
    main = tr.attribute([phase], children, aggs, root_name="unaccounted")
    attempts = [s for s in spans if s.name == "executor.attempt"]
    return main, tr.attribute(attempts, children, aggs)


def layer_metrics(spans, aggs, counts, main, worker, ops: int) -> Dict[str, float]:
    """Per-layer shares, and counts per operation, of one traced phase."""
    out = _grouped(main, MAIN_LAYERS, sum(main.values()))
    out.update(_grouped(worker, WORKER_LAYERS, sum(worker.values())))
    out["tracegen.instructions"] = sum(a.count for a in aggs if a.name == "tracegen") / ops
    for name in COUNTS:
        out[name] = counts.get(name, 0) / ops
    steps = counts.get("batch.quantum_steps", 0)
    out["batch.dedup_ratio"] = (
        counts.get("batch.quantum_steps_sequential", 0) / steps if steps else 0.0
    )
    gets = counts.get("store.gets", 0)
    out["store.hit_ratio"] = counts.get("store.hits", 0) / gets if gets else 0.0
    attempts = [s.request or "" for s in spans if s.name == "executor.attempt"]
    probes = sum(1 for r in attempts if r.startswith("verify-"))
    out["verify.extra_sim_share"] = probes / len(attempts) if attempts else 0.0
    return out


def wrapper_costs(calls: int = 20_000, repeats: int = 5) -> Tuple[float, float]:
    """Seconds a span wrapper and an aggregate wrapper add to one call.

    Each is timed on a function that does nothing, against the bare call,
    as the best of ``repeats`` loops: the wrappers' own cost, without the
    host's slow spells.
    """
    inst = Instrumentation(tr.Recorder(), Path("."))

    def noop(*_args):
        return None

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(None)
            times.append(time.perf_counter() - t0)
        return min(times) / calls

    bare = best(noop)
    return (max(0.0, best(inst._span("cost", noop)) - bare),
            max(0.0, best(inst._aggregate("cost", noop)) - bare))


def overhead_share(spans, aggs, phase_gid: int) -> float:
    """Estimated share of the traced time the wrappers themselves took.

    Every span and aggregated call costs what :func:`wrapper_costs`
    measures; the traced time is the phase plus every executor attempt
    (worker-side wrappers run inside attempts).
    """
    span_cost, agg_cost = wrapper_costs()
    spent = len(spans) * span_cost + sum(a.count for a in aggs) * agg_cost
    traced = sum(s.end - s.start for s in spans
                 if (s.gid == phase_gid or s.name == "executor.attempt")
                 and s.end == s.end)  # not NaN: closed
    return spent / traced


def layer_table(spans, aggs, main, worker) -> Dict[str, dict]:
    """Per span name: calls, p50 duration and attributed seconds, per partition."""
    durations: Dict[str, List[float]] = {}
    for s in spans:
        if s.end == s.end:  # not NaN: closed
            durations.setdefault(s.name, []).append(s.end - s.start)
    calls: Dict[str, int] = {}
    for a in aggs:
        calls[a.name] = calls.get(a.name, 0) + a.count
    table = {}
    for name in sorted(set(durations) | set(calls) | set(main) | set(worker)):
        d = durations.get(name, [])
        table[name] = {
            "calls": len(d) or calls.get(name, 0),
            "p50_ms": statistics.median(d) * 1e3 if d else None,
            "main_s": main.get(name, 0.0),
            "worker_s": worker.get(name, 0.0),
        }
    return table


def request_breakdown(spans, due: Dict[str, float], answered: Dict[str, float]) -> dict:
    """Where a fresh request's latency went, component by component.

    Per client request: lateness (due -> submit), front door (submit span:
    identity, store miss, lease, admission), shard queue (submit end ->
    attempt spawn), executor (attempt minus the child task: fork, pickle,
    pipe, reap), simulation (the child task) and respond (reap -> answer
    seen by the caller: store put, verify dispatch, polling). The parts sum
    to the request's latency.
    """
    submit = {s.request: s for s in spans if s.name == "service.submit"}
    attempt = {s.request: s for s in spans if s.name == "executor.attempt"}
    task = {s.parent: s for s in spans if s.name == "worker.task"}
    parts: Dict[str, List[float]] = {
        k: [] for k in ("lateness", "front", "queue", "executor", "simulation", "respond")
    }
    latency: List[float] = []
    for rid, t_due in due.items():
        sub, att = submit.get(rid), attempt.get(rid)
        if sub is None or att is None or rid not in answered:
            continue
        job = task.get(att.gid)
        if job is None:
            continue
        parts["lateness"].append(sub.start - t_due)
        parts["front"].append(sub.end - sub.start)
        parts["queue"].append(att.start - sub.end)
        parts["executor"].append((att.end - att.start) - (job.end - job.start))
        parts["simulation"].append(job.end - job.start)
        parts["respond"].append(answered[rid] - att.end)
        latency.append(answered[rid] - t_due)
    if not latency:
        return {"requests": 0}
    total = sum(latency)
    return {
        "requests": len(latency),
        "latency_ms_p50": statistics.median(latency) * 1e3,
        "parts": {
            k: {"ms_p50": statistics.median(v) * 1e3, "share": sum(v) / total}
            for k, v in parts.items()
        },
    }


def stage_profile(mix: str, num_threads: int, quantum_cycles: int, quanta: int,
                  seed: int, heuristic: Optional[str], threshold: float) -> Dict[str, float]:
    """One run under :class:`repro.perf.StageProfiler`, in its own pass
    because the profiler turns idle-cycle skipping off."""
    from repro import build_processor
    from repro.core.adts import ADTSController
    from repro.core.thresholds import ThresholdConfig
    from repro.perf.profiler import StageProfiler

    hook = None
    if heuristic is not None:
        hook = ADTSController(heuristic=heuristic,
                              thresholds=ThresholdConfig(ipc_threshold=threshold))
    proc = build_processor(mix=mix, num_threads=num_threads, seed=seed,
                           policy="icount", hook=hook, quantum_cycles=quantum_cycles)
    with StageProfiler(proc) as prof:
        proc.run_quanta(quanta)
    report = prof.report()
    out = {
        metric: sum(report[s]["share"] for s in stages)
        for metric, stages in STAGES.items()
    }
    out["smt.committed"] = proc.stats.committed
    return out

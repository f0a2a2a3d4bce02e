"""Process-isolated supervised executor for sweep batches and service cells.

An in-process timeout cannot *stop* a hung attempt: CPython offers no way
to kill a compute-bound thread, so a timed-out run keeps burning a core.
This module is the repository's only hard-limit mechanism. It runs every
work item in a child **process** under a supervisor that enforces limits
with SIGKILL:

* a pool of up to ``workers`` concurrent worker processes. A worker runs
  one item at a time and is **reused only under backlog**: when it
  finishes an item and the caller spawns another attempt before the next
  :meth:`~SupervisedExecutor.pump`, that item goes down the finished
  worker's pipe instead of into a freshly forked process. A worker that
  gets no item by the next pump is told to exit and is reaped, so nothing
  outlives the work that was queued for it;
* **every task starts clean**: a worker freezes what it inherited from
  the supervisor (``gc.freeze``) and runs a full collection after each
  task, and tasks restore any process-wide state they install;
* per-run **heartbeats**: workers report progress over a pipe (every
  quantum for a service cell, every quantum step for a grid batch), so
  the supervisor distinguishes *hung* (stale heartbeat → killed) from
  merely *slow* (heartbeats flowing → left alone);
* a hard per-attempt **wall-clock limit**, also enforced with SIGKILL;
* **crash containment**: a segfault, OOM-kill or stray ``kill -9`` takes
  down one worker's process, not the sweep. A worker is never reused after
  a failure: after an exception it exits, after a timeout or stall it is
  killed, so a fault can spoil at most the run of queued items one worker
  served before it;
* bounded **restart with backoff** per item; every retry is marked
  ``strip_worker_faults``, so the task runs its specs minus their
  process-killing worker faults (``BatchRunSpec.without_worker_faults``)
  and an injected crash is survived rather than replayed forever. Every
  attempt starts from cycle zero: a run's result is a pure function of
  its key, so recomputing a lost attempt gives the exact answer;
* **deterministic aggregation**: results are keyed by item and the sweep
  reassembles them in canonical grid order, so the aggregate is
  bit-identical regardless of worker count, completion order, crashes,
  restarts or worker reuse (every run is seed-deterministic). The sweep
  journals each finished cell itself — the journal's single-writer lock
  lives in the parent and workers never touch the journal file.

The supervisor owns every worker's lifetime: workers restore the default
SIGTERM disposition (so ``repro serve``'s drain handler is not inherited)
and ignore SIGINT (a terminal's Ctrl-C reaches the whole process group;
the supervisor decides whether in-flight work drains or is killed), and
an idle worker whose supervisor died exits on its own.

The supervisor records every failed attempt in :attr:`SupervisedExecutor.
failures` using the stable taxonomy strings of
:mod:`repro.harness.errors` (``crash`` / ``timeout`` / ``stalled-heartbeat``
/ ``exception`` / ``invariant``), so post-mortems can count causes without
parsing messages.

Two consumption styles share one pool:

* **batch** — :meth:`SupervisedExecutor.run` takes a list of items and
  blocks until all complete (retrying per config), as sweeps always have;
* **streaming** — :meth:`SupervisedExecutor.spawn_attempt` /
  :meth:`~SupervisedExecutor.pump` expose the same supervision (heartbeats,
  SIGKILL limits, crash taxonomy) one attempt at a time without blocking,
  so a long-lived caller such as a service shard
  (:class:`~repro.service.service.SimulationService`) can interleave
  dispatch with its own admission/backpressure logic. ``run()`` is implemented on top of
  the streaming primitives.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.harness.errors import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_INVARIANT,
    FAILURE_STALLED,
    FAILURE_TIMEOUT,
    HeartbeatStallError,
    RunFailedError,
    RunTimeoutError,
    WorkerCrashError,
)
from repro.smt.invariants import InvariantViolation

#: Fork where the platform has it (cheap on Linux, and workers inherit task
#: kinds registered after import), else spawn.
_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: How often an idle worker checks that its supervisor is still alive.
_IDLE_CHECK_S = 0.2

# ---------------------------------------------------------------------------
# Task kinds: what a worker knows how to run.
# ---------------------------------------------------------------------------
# A task function receives (spec, progress, None) and returns a
# JSON-friendly payload dict. It runs in the CHILD process; spec must be
# picklable. `progress(q)` must be called at least once per quantum — it is
# the heartbeat the supervisor watches. The third argument is always None;
# it stays because bench/layers.py's task wrapper forwards three arguments.
TaskFn = Callable[[dict, Callable[[int], None], None], dict]

TASK_KINDS: Dict[str, TaskFn] = {}


def register_task_kind(name: str, fn: TaskFn) -> None:
    """Register a task kind (module import time, so spawn workers see it)."""
    TASK_KINDS[name] = fn


def _run_grid_batch(spec: dict, progress, _unused) -> dict:
    """The grid-sweep task: one lockstep engine pass over a batch of cells.

    ``spec["cells"]`` is a list of ``(journal key, BatchRunSpec)`` pairs;
    the payload maps each key to its per-cell dict
    (:func:`~repro.harness.sweep.run_cells`, the same function an inline
    sweep calls). ``progress`` fires once per quantum step of the batch
    engine, whichever trajectory took it. A restarted attempt recomputes
    the batch, which shared stepping keeps cheap.
    """
    from repro.harness.sweep import run_cells

    cells = spec["cells"]
    if spec.get("strip_worker_faults"):
        cells = [(key, run.without_worker_faults()) for key, run in cells]
    return {"cells": run_cells(cells, progress)}


register_task_kind("grid_batch", _run_grid_batch)


def _run_service_cell(spec, progress, _unused) -> dict:
    """The simulation service's full-fidelity task: one detailed-engine run,
    answered with its :meth:`~repro.harness.runner.RunResult.payload` (the
    payload a grid journal records for the same run).

    ``spec["run"]`` is the request's picklable
    :class:`~repro.harness.runner.BatchRunSpec`. Registered here (not in
    the service module) so spawn-method workers, which import only this
    module, can resolve it; the inline full tier calls it in-process.
    ``force_crash`` is the service's breaker-trip fault hook: the attempt
    dies by SIGKILL before simulating, exercising the real
    crash-containment path rather than a synthetic exception.
    """
    from repro.harness.runner import run_spec

    if spec.get("force_crash"):
        os.kill(os.getpid(), signal.SIGKILL)
    run = spec["run"]
    if spec.get("strip_worker_faults"):
        run = run.without_worker_faults()
    return run_spec(run, progress=progress).payload()


register_task_kind("service_cell", _run_service_cell)


# ---------------------------------------------------------------------------
# Work items and supervisor configuration.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One supervised unit of work, keyed by ``label``.

    ``kind`` names a registered task (:data:`TASK_KINDS`); ``spec`` is
    handed to the task function in the child and must be picklable.
    """

    label: str
    kind: str
    spec: dict = field(default_factory=dict)
    shard: Optional[int] = None  # owning shard behind the service front door

    @property
    def result_key(self) -> str:
        return self.label


#: Supervisor wake-up period (seconds); the service pump sleeps as long
#: between polls of a busy pool.
POLL_INTERVAL_S = 0.02
#: Delay before the first retry of a failed attempt (seconds); each
#: further retry waits ``BACKOFF_FACTOR`` times longer.
RESTART_BACKOFF_S = 0.1
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class ExecutorConfig:
    """Supervisor knobs.

    Attributes:
        workers: concurrent worker processes.
        run_timeout_s: hard per-attempt wall-clock limit (None = unbounded).
        heartbeat_timeout_s: kill a worker whose last heartbeat is older
            than this (None = no staleness check). Distinguishes hung from
            slow: a slow run heartbeats every quantum (every quantum step
            of the batch engine for a grid batch) and is never killed by
            this limit.
        max_restarts: extra attempts per item after the first fails,
            with exponential backoff (:data:`RESTART_BACKOFF_S`,
            :data:`BACKOFF_FACTOR`). Each attempt starts from cycle zero.
    """

    workers: int = 2
    run_timeout_s: Optional[float] = None
    heartbeat_timeout_s: Optional[float] = None
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive")
        if self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")


def _worker_main(conn, supervisor_pid: int, task: tuple) -> None:
    """Child-process entry point: run tasks until told to stop.

    Wire protocol over the duplex ``conn``:
        parent → child  ("task", kind, spec)                  run one more
                        ("exit",)                             stop
        child → parent  ("heartbeat", quantum_index)          every quantum
                        ("result", payload)                   task finished
                        ("error", failure_kind, repr)         task raised
    ``task`` is the first ``(kind, spec)``. After a result
    the worker waits for the next message; after an error it exits, so a
    worker is never reused after a failure. A worker that dies without
    sending ``result``/``error`` is a *crash* and is classified by the
    parent from its exit code.

    ``supervisor_pid`` is read in the parent at fork time: a child that
    read its own parent pid could already see PID 1 if the supervisor died
    mid-fork, and would then wait for a task forever.
    """
    # The supervisor owns this process's lifetime. SIGTERM is the default
    # again (an inherited drain handler would swallow multiprocessing's
    # exit-time terminate()); SIGINT is ignored, because a terminal's
    # Ctrl-C reaches the whole process group and the supervisor decides
    # what happens to in-flight work (repro serve drains it, the grid CLI
    # SIGKILLs it).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # What the supervisor's heap held stays shared and is never traversed;
    # each task's garbage, cycles included, is freed before the next one.
    gc.freeze()
    try:
        while task is not None and _run_task(conn, *task):
            gc.collect()
            task = _next_task(conn, supervisor_pid)
    finally:
        conn.close()


def _run_task(conn, kind: str, spec: dict) -> bool:
    """Run one task and report it; True when it succeeded."""

    def progress(quantum_index: int) -> None:
        conn.send(("heartbeat", quantum_index))

    try:
        payload = TASK_KINDS[kind](spec, progress, None)
        conn.send(("result", payload))
        return True
    except InvariantViolation as exc:
        conn.send(("error", FAILURE_INVARIANT, repr(exc)))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        conn.send(("error", FAILURE_EXCEPTION, repr(exc)))
    return False


def _next_task(conn, supervisor_pid: int) -> Optional[tuple]:
    """Wait for the supervisor's next task; None means exit. Sibling
    workers hold copies of the supervisor's pipe ends, so its death shows
    as a changed parent pid, not as EOF."""
    while not conn.poll(_IDLE_CHECK_S):
        if os.getppid() != supervisor_pid:
            return None
    try:
        msg = conn.recv()
    except (EOFError, OSError):
        return None
    return msg[1:] if msg[0] == "task" else None


class _Attempt:
    """One item attempt running on a live worker process."""

    __slots__ = ("item", "attempt", "proc", "conn", "started", "last_beat", "outcome")

    def __init__(self, item: WorkItem, attempt: int, proc, conn) -> None:
        self.item = item
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        now = time.monotonic()
        self.started = now
        self.last_beat = now
        self.outcome = None  # ("result", payload) | ("error", kind, repr)


@dataclass(frozen=True)
class AttemptOutcome:
    """One finished attempt, as reported by :meth:`SupervisedExecutor.pump`.

    ``payload`` is the task's result dict on success and None on failure;
    a failure also carries its taxonomy string (``failure_kind``, one of
    :data:`~repro.harness.errors.FAILURE_KINDS`) and the classified
    exception. The caller owns the retry decision.
    """

    item: WorkItem
    attempt: int
    payload: Optional[dict] = None
    failure_kind: Optional[str] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.payload is not None


class SupervisedExecutor:
    """Run :class:`WorkItem` batches in supervised child processes.

    One executor may be reused across batches; :attr:`failures` accumulates
    one dict per failed attempt (``label``, ``attempt``, ``kind``,
    ``detail``) across all of them.
    """

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        self.config = config or ExecutorConfig()
        self.failures: List[dict] = []
        #: Dynamic concurrency cap below ``config.workers`` (None = no cap).
        #: An autoscaler lowers this to scale down WITHOUT killing anything:
        #: live attempts always run to completion, the pool just stops
        #: spawning past the cap — scale-downs can never strand a request.
        self.soft_cap: Optional[int] = None
        self._last_error: Dict[str, BaseException] = {}  # result_key -> last failure
        self._live: List[_Attempt] = []
        #: Workers that finished an item since the last pump: (proc, conn).
        self._idle: List[tuple] = []

    # -- streaming API ------------------------------------------------------
    @property
    def active(self) -> int:
        """Live (spawned, not yet reaped) attempts."""
        return len(self._live)

    def has_capacity(self) -> bool:
        """Whether another attempt can spawn without exceeding ``workers``
        (or the tighter :attr:`soft_cap`, when an autoscaler set one)."""
        cap = self.config.workers
        if self.soft_cap is not None:
            cap = min(cap, max(0, self.soft_cap))
        return len(self._live) < cap

    def spawn_attempt(self, item: WorkItem, attempt: int = 1) -> None:
        """Start one supervised attempt of ``item`` (non-blocking): on a
        worker that finished an item since the last pump when there is
        one, else in a freshly forked worker."""
        spec = item.spec
        if attempt > 1:
            # A crash/hang fault that killed attempt 1 would kill every
            # retry too — retries run their specs' fault plans minus the
            # process-killing members (still deterministic: same seed).
            spec = {**spec, "strip_worker_faults": True}
        task = (item.kind, spec)
        while self._idle:
            proc, conn = self._idle.pop()
            try:
                conn.send(("task", *task))
            except OSError:  # the worker died while idle: reap it
                self._kill(proc, conn)
                continue
            self._live.append(_Attempt(item, attempt, proc, conn))
            return
        parent_conn, child_conn = _CTX.Pipe()
        proc = _CTX.Process(
            target=_worker_main,
            args=(child_conn, os.getpid(), task),
            name=f"repro-cell-{item.label}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only copy of its end
        self._live.append(_Attempt(item, attempt, proc, parent_conn))

    def pump(self) -> List[AttemptOutcome]:
        """Retire idle workers, drain heartbeats, enforce limits, reap
        finished attempts.

        Non-blocking; returns one :class:`AttemptOutcome` per attempt that
        finished since the last pump (success or taxonomy-classified
        failure). A worker whose attempt succeeded stays up until the next
        pump, so an item spawned before then reuses it; one that got no
        item by then is told to exit and reaped here. Retry policy is the
        caller's business — ``run()`` layers the batch retry/backoff logic
        on top.
        """
        self._retire_idle()
        self._poll(self._live)
        finished: List[AttemptOutcome] = []
        still: List[_Attempt] = []
        for att in self._live:
            done, payload = self._reap(att)
            if not done:
                still.append(att)
                continue
            if payload is not None:
                finished.append(AttemptOutcome(att.item, att.attempt, payload))
            else:
                finished.append(
                    AttemptOutcome(
                        att.item,
                        att.attempt,
                        None,
                        self.failures[-1]["kind"],
                        self._last_error.get(att.item.result_key),
                    )
                )
        self._live = still
        return finished

    def live_workers(self) -> List[dict]:
        """Liveness snapshot of the pool (for service health endpoints)."""
        return [
            {
                "label": att.item.label,
                "shard": att.item.shard,
                "attempt": att.attempt,
                "pid": att.proc.pid,
                "alive": att.proc.is_alive(),
                "age_s": time.monotonic() - att.started,
                "last_beat_age_s": time.monotonic() - att.last_beat,
            }
            for att in self._live
        ]

    def shutdown(self) -> None:
        """SIGKILL every live attempt and every idle worker and reap them
        all. Idempotent and safe to call from a signal handler; a worker
        handed an item in the instant before it was recorded finishes that
        item and exits on its own once the supervisor is gone."""
        for att in self._live:
            self._kill(att.proc, att.conn)
        for proc, conn in self._idle:
            self._kill(proc, conn)
        self._live = []
        self._idle = []

    # -- batch API ----------------------------------------------------------
    def run(self, items: List[WorkItem]) -> Dict[str, dict]:
        """Execute every item; return ``{item.result_key: payload}``.

        An item that still fails after ``max_restarts`` restarts kills the
        remaining workers and raises
        :class:`~repro.harness.errors.RunFailedError` with the final
        attempt's failure chained.
        """
        results: Dict[str, dict] = {}
        attempts_done: Dict[str, int] = {}  # result_key -> attempts so far
        backlog: List[tuple] = [(0.0, i, item) for i, item in enumerate(items)]
        try:
            while backlog or self._live:
                now = time.monotonic()
                while backlog and self.has_capacity() and backlog[0][0] <= now:
                    _, _, item = backlog.pop(0)
                    self.spawn_attempt(item, attempts_done.get(item.result_key, 0) + 1)
                for out in self.pump():
                    key = out.item.result_key
                    attempts_done[key] = out.attempt
                    if out.payload is not None:
                        results[key] = out.payload
                    else:
                        retry_at = self._on_failure(out.item, out.attempt)
                        # _on_failure raised if the budget is exhausted
                        backlog.append((retry_at, len(backlog), out.item))
                        backlog.sort(key=lambda t: (t[0], t[1]))
                if self._live or backlog:
                    time.sleep(POLL_INTERVAL_S)
        finally:
            self.shutdown()
        return results

    # -- internals ----------------------------------------------------------
    def _poll(self, live: List[_Attempt]) -> None:
        """Drain every live pipe; record heartbeats and final outcomes."""
        for att in live:
            self._drain(att)

    @staticmethod
    def _drain(att: _Attempt) -> None:
        try:
            while att.conn.poll():
                msg = att.conn.recv()
                if msg[0] == "heartbeat":
                    att.last_beat = time.monotonic()
                else:  # ("result", ...) or ("error", ...)
                    att.outcome = msg
        except (EOFError, OSError):
            pass  # worker side closed; exit code decides in _reap

    def _reap(self, att: _Attempt):
        """Check one attempt for completion.

        Returns ``(done, payload)``: ``(False, None)`` while running,
        ``(True, payload)`` on success, ``(True, None)`` on a failure that
        was recorded to the taxonomy (caller decides on retry).
        """
        cfg = self.config
        now = time.monotonic()
        if att.outcome is not None and att.outcome[0] == "result":
            self._idle.append((att.proc, att.conn))  # reusable until next pump
            return True, att.outcome[1]
        if att.outcome is not None:  # ("error", kind, repr)
            self._kill(att.proc, att.conn)  # exiting anyway: never reused
            _, kind, detail = att.outcome
            self._record(att, kind, detail)
            return True, None
        if not att.proc.is_alive():
            # The worker may have sent its final message and exited between
            # the poll and this liveness check — drain once more before
            # declaring a crash.
            self._drain(att)
            if att.outcome is not None:
                return self._reap(att)
            # Died without a final message: crashed (segfault, OOM, kill).
            att.proc.join()
            att.conn.close()
            err = WorkerCrashError(att.item.label, att.proc.exitcode)
            self._record(att, FAILURE_CRASH, str(err), err)
            return True, None
        if cfg.run_timeout_s is not None and now - att.started > cfg.run_timeout_s:
            self._kill(att.proc, att.conn)
            err = RunTimeoutError(att.item.label, cfg.run_timeout_s)
            self._record(att, FAILURE_TIMEOUT, str(err), err)
            return True, None
        if (
            cfg.heartbeat_timeout_s is not None
            and now - att.last_beat > cfg.heartbeat_timeout_s
        ):
            self._kill(att.proc, att.conn)
            err = HeartbeatStallError(
                att.item.label, now - att.last_beat, cfg.heartbeat_timeout_s
            )
            self._record(att, FAILURE_STALLED, str(err), err)
            return True, None
        return False, None

    def _record(self, att: _Attempt, kind: str, detail: str, exc=None) -> None:
        self.failures.append(
            {
                "label": att.item.label,
                "attempt": att.attempt,
                "kind": kind,
                "detail": detail,
            }
        )
        self._last_error[att.item.result_key] = (
            exc if exc is not None else RuntimeError(detail)
        )

    def failures_for(self, labels) -> List[dict]:
        """Restart telemetry for the given work-item labels, in record
        order. The front door's dead-letter queue uses this to attach each
        crash/hang exactly as the supervisor saw it to a parked entry."""
        wanted = set(labels)
        return [dict(f) for f in self.failures if f["label"] in wanted]

    def _on_failure(self, item: WorkItem, attempt: int) -> float:
        """Decide retry-or-raise for a failed attempt.

        Returns the monotonic time before which the retry must not start;
        raises :class:`RunFailedError` when the restart budget is spent.
        """
        if attempt > self.config.max_restarts:
            last = self._last_error.get(item.result_key)
            raise RunFailedError(item.label, attempt, last) from last
        delay = RESTART_BACKOFF_S * (BACKOFF_FACTOR ** (attempt - 1))
        return time.monotonic() + delay

    @staticmethod
    def _kill(proc, conn) -> None:
        """SIGKILL one worker and reap it (no cooperation required)."""
        if proc.is_alive():
            proc.kill()
        proc.join()
        try:
            conn.close()
        except OSError:
            pass

    def _retire_idle(self) -> None:
        """Tell every idle worker to exit, then reap them all."""
        for _, conn in self._idle:
            try:
                conn.send(("exit",))
            except OSError:
                pass  # already gone
        for proc, conn in self._idle:
            proc.join()
            conn.close()
        self._idle = []

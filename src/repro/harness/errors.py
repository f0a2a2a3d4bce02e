"""Structured error taxonomy for the experiment harness.

Every failure mode the harness can produce maps onto one exception class,
so sweep drivers and CI wrappers can react per-category (don't retry a
``ConfigError``; do retry a ``RunTimeoutError``) instead of pattern-matching
message strings. All classes derive from :class:`HarnessError`; the two
that correspond to built-in categories also subclass the matching built-in
(``ValueError`` / ``TimeoutError``) so pre-existing ``except`` clauses keep
working.
"""

from __future__ import annotations

from typing import Optional

# The durable-storage failure taxonomy lives in the dependency-free
# repro.storage.errors and is re-exported here so harness code sees one
# unified hierarchy: ENOSPC/EDQUOT -> DiskFullError, EACCES/EPERM ->
# StoragePermissionError, retry-exhausted I/O -> TransientStorageError,
# and artifact-level damage -> ArtifactCorruptError/ArtifactVersionError.
from repro.storage.errors import (  # noqa: F401  (re-exports)
    ArtifactCorruptError,
    ArtifactError,
    ArtifactVersionError,
    DiskFullError,
    StorageError,
    StoragePermissionError,
    TransientStorageError,
)


class HarnessError(Exception):
    """Base class for all harness-raised failures."""


class ConfigError(HarnessError, ValueError):
    """A run or request configuration field failed validation.

    Carries the offending field so callers (and error messages) name it
    precisely instead of failing deep inside ``build_processor``.
    """

    def __init__(self, field: str, value: object, requirement: str) -> None:
        self.field = field
        self.value = value
        self.requirement = requirement
        super().__init__(f"invalid {field}={value!r}: must be {requirement}")


class RunTimeoutError(HarnessError, TimeoutError):
    """A single simulation run exceeded its wall-clock budget."""

    def __init__(self, label: str, timeout_s: float) -> None:
        self.label = label
        self.timeout_s = timeout_s
        super().__init__(f"{label}: run exceeded {timeout_s:g}s wall-clock budget")


class HeartbeatStallError(HarnessError, TimeoutError):
    """A supervised worker stopped heartbeating (hung, not merely slow)."""

    def __init__(self, label: str, stale_s: float, limit_s: float) -> None:
        self.label = label
        self.stale_s = stale_s
        self.limit_s = limit_s
        super().__init__(
            f"{label}: no heartbeat for {stale_s:.1f}s (limit {limit_s:g}s); "
            "worker killed"
        )


class WorkerCrashError(HarnessError):
    """A supervised worker process died without reporting a result.

    ``signal`` is set when the worker was killed by a signal (segfault,
    OOM-kill, external SIGKILL); ``exitcode`` when it exited on its own.
    """

    def __init__(self, label: str, exitcode: Optional[int]) -> None:
        self.label = label
        self.exitcode = exitcode
        self.signal = -exitcode if exitcode is not None and exitcode < 0 else None
        how = (
            f"killed by signal {self.signal}"
            if self.signal is not None
            else f"exited with code {exitcode}"
        )
        super().__init__(f"{label}: worker {how} without a result")


class RunFailedError(HarnessError):
    """A run kept failing after its bounded retries were exhausted.

    The last underlying exception is chained as ``__cause__``.
    """

    def __init__(self, label: str, attempts: int, last: Optional[BaseException] = None) -> None:
        self.label = label
        self.attempts = attempts
        detail = f": {last}" if last is not None else ""
        super().__init__(f"{label}: failed after {attempts} attempt(s){detail}")


class JournalError(HarnessError):
    """The run journal contains undecodable entries (not a truncated tail),
    or is exclusively locked by another live sweep process."""


#: Supervisor failure taxonomy: every way a supervised cell attempt can fail,
#: as stable strings (recorded per attempt in ``SupervisedExecutor.failures``
#: so post-mortems can count causes without parsing messages).
FAILURE_CRASH = "crash"  # worker died (signal / nonzero exit), no result
FAILURE_TIMEOUT = "timeout"  # hard wall-clock limit exceeded, SIGKILLed
FAILURE_STALLED = "stalled-heartbeat"  # heartbeats went stale, SIGKILLed
FAILURE_EXCEPTION = "exception"  # worker reported a Python exception
FAILURE_INVARIANT = "invariant"  # worker reported an InvariantViolation

FAILURE_KINDS = (
    FAILURE_CRASH,
    FAILURE_TIMEOUT,
    FAILURE_STALLED,
    FAILURE_EXCEPTION,
    FAILURE_INVARIANT,
)


#: Service outcome taxonomy: every way the simulation service can answer a
#: request, as stable strings (every response carries exactly one of these,
#: so load tests and dashboards can count dispositions without parsing
#: reason text). ``degraded`` responses were *served* — by the calibrated
#: fast model instead of the detailed pipeline — while ``rejected``/``shed``
#: requests were refused (at admission) or dropped (at dequeue, deadline
#: already blown) without being simulated at all.
OUTCOME_FULL = "full"  # served at full fidelity by the detailed engine
OUTCOME_DEGRADED = "degraded"  # served by the fast model (ladder step)
OUTCOME_REJECTED = "rejected"  # refused at admission (full queue, quota, …)
OUTCOME_SHED = "shed"  # dequeued past its deadline; dropped unserved
OUTCOME_FAILED = "failed"  # full tier failed and no degrade path applied

OUTCOME_KINDS = (
    OUTCOME_FULL,
    OUTCOME_DEGRADED,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    OUTCOME_FAILED,
)

"""Experiment harness: runners, sweeps and report formatting for
regenerating every table and figure of the paper's evaluation (§5–§6),
hardened with a structured error taxonomy, a JSONL run journal
(single-writer locked) for crash-resilient checkpoint/resume sweeps, and a
process-isolated supervised executor that contains crashes and enforces
timeout/heartbeat limits with SIGKILL."""

from repro.harness.errors import (
    FAILURE_KINDS,
    ConfigError,
    HarnessError,
    HeartbeatStallError,
    JournalError,
    RunFailedError,
    RunTimeoutError,
    WorkerCrashError,
)
from repro.harness.executor import (
    ExecutorConfig,
    SupervisedExecutor,
    WorkItem,
    register_task_kind,
)
from repro.harness.journal import RunJournal
from repro.harness.runner import RunConfig, RunResult, run_fixed, run_adts, run_mix_average
from repro.harness.sweep import SweepResult, threshold_type_grid
from repro.harness.report import format_table, format_series, print_table
from repro.harness.experiments import (
    ExperimentDefaults,
    experiment_table1,
    experiment_fig7,
    experiment_fig8,
    experiment_headline,
    experiment_resilience,
    experiment_similarity,
    experiment_thread_scaling,
    experiment_detector_overhead,
)

__all__ = [
    "HarnessError",
    "ConfigError",
    "RunTimeoutError",
    "RunFailedError",
    "HeartbeatStallError",
    "WorkerCrashError",
    "JournalError",
    "FAILURE_KINDS",
    "RunJournal",
    "ExecutorConfig",
    "SupervisedExecutor",
    "WorkItem",
    "register_task_kind",
    "RunConfig",
    "RunResult",
    "run_fixed",
    "run_adts",
    "run_mix_average",
    "SweepResult",
    "threshold_type_grid",
    "format_table",
    "format_series",
    "print_table",
    "ExperimentDefaults",
    "experiment_table1",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_headline",
    "experiment_resilience",
    "experiment_similarity",
    "experiment_thread_scaling",
    "experiment_detector_overhead",
]

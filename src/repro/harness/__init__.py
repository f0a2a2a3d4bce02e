"""Experiment harness: runners, sweeps and report formatting for
regenerating every table and figure of the paper's evaluation (§5–§6),
hardened with a structured error taxonomy, a JSONL run journal
(single-writer locked) so a resumed sweep skips finished cells, and a
process-isolated supervised executor that contains crashes and enforces
timeout/heartbeat limits with SIGKILL. A failed attempt is recomputed
from cycle zero."""

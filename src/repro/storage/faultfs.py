"""Seeded filesystem fault injection around the storage layer.

At production scale disk faults are routine inputs, not exceptional ones:
writes tear mid-record on power loss, the device fills up, and renames
fail on ENOSPC metadata updates. :class:`FaultFS` injects these,
deterministically, at the two choke points every durable write in this
codebase already flows through (:mod:`repro.storage.atomic`):

* ``write`` — torn write at a seeded offset, or ENOSPC after
  :data:`ENOSPC_AFTER_BYTES` bytes;
* ``replace`` — the atomic-rename step fails, leaving only the temp file.

All randomness comes from a :class:`~repro.util.randpool.RandPool` over the
plan's seed, so a (workload seed, disk-fault plan) pair reproduces the same
fault sequence byte-for-byte — faulty runs are as replayable as clean ones.
Every fault is *transient* (each operation draws afresh, so the atomic
layer's bounded retry normally recovers); what outlives the retry budget
is a failed write its caller absorbs, never a damaged file. Damage that
lands on disk anyway (bit rot, a file torn by a kill) is caught by the
artifact checksums and ``repro fsck``.

The injector is the ``disk`` fault family of
:class:`repro.faults.plan.FaultPlan` (``--faults disk``): it reads the
plan's ``disk_*`` rates and its seed, which ``FaultPlan`` validates.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

import numpy as np

from repro.util.randpool import RandPool
from repro.util.seeds import SeedSequencer

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

#: Bytes that land before an injected ENOSPC.
ENOSPC_AFTER_BYTES = 64


class FaultFS:
    """Injects a :class:`~repro.faults.plan.FaultPlan`'s disk faults at the
    storage layer's write hooks. Rates are per storage *operation* (one
    write, one rename), not per byte."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        rng = np.random.default_rng(SeedSequencer(plan.seed).seed_for("faultfs"))
        self.pool = RandPool(rng, batch=256)
        #: injected-fault tally by fault name.
        self.counts: Dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------
    def _hit(self, rate: float) -> bool:
        """One seeded Bernoulli draw; zero-rate faults draw nothing, so
        disabling one fault never perturbs another fault's stream."""
        return rate > 0.0 and self.pool.bernoulli(rate)

    def _count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def faults_injected(self) -> int:
        """Total injected faults across all kinds."""
        return sum(self.counts.values())

    def summary(self) -> dict:
        """Injection telemetry, merged into ``RunResult.scheduler``."""
        return {
            "disk_faults_injected": self.faults_injected,
            "disk_fault_counts": dict(self.counts),
        }

    # -- storage hooks (called by repro.storage.atomic) ----------------------
    def write(self, fd: int, data: bytes) -> int:
        """Write ``data`` to ``fd``, possibly torn or ENOSPC'd."""
        plan = self.plan
        if self._hit(plan.disk_torn_write_rate):
            self._count("torn_write")
            cut = self.pool.integer(len(data)) if data else 0
            if cut:
                os.write(fd, data[:cut])
            raise OSError(5, f"faultfs: torn write after {cut} of {len(data)} bytes")
        if self._hit(plan.disk_enospc_rate):
            self._count("enospc")
            landed = min(ENOSPC_AFTER_BYTES, len(data))
            if landed:
                os.write(fd, data[:landed])
            raise OSError(28, f"faultfs: no space left after {landed} bytes")
        return os.write(fd, data)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        """``os.replace`` with an injectable rename failure."""
        if self._hit(self.plan.disk_rename_fail_rate):
            self._count("rename_fail")
            raise OSError(5, f"faultfs: rename {src} -> {dst} failed")
        os.replace(src, dst)


# -- process-wide installation ----------------------------------------------
_ACTIVE: Optional[FaultFS] = None


def install_faultfs(ffs: Optional[FaultFS]) -> Optional[FaultFS]:
    """Install (or clear, with ``None``) the process-wide fault injector."""
    global _ACTIVE
    _ACTIVE = ffs
    return _ACTIVE


def active_faultfs() -> Optional[FaultFS]:
    """The currently installed injector, or None for clean I/O."""
    return _ACTIVE


@contextmanager
def faultfs_session(
    target: Union[FaultPlan, FaultFS, None]
) -> Iterator[Optional[FaultFS]]:
    """Scope a fault injector around a block, restoring the previous one.

    Accepts a plan (a fresh :class:`FaultFS` is built when a disk fault is
    enabled, else the block runs clean), an injector, or None (the block
    runs clean even if an outer session is active).
    """
    ffs: Optional[FaultFS]
    if target is None or isinstance(target, FaultFS):
        ffs = target
    else:
        ffs = FaultFS(target) if target.any_disk_enabled else None
    previous = _ACTIVE
    install_faultfs(ffs)
    try:
        yield ffs
    finally:
        install_faultfs(previous)

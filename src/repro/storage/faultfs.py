"""Seeded filesystem fault injection around the storage layer.

At production scale disk faults are routine inputs, not exceptional ones:
writes tear mid-record on power loss, renames fail on ENOSPC metadata
updates, bits rot under the checksum, reads return EIO, and I/O stalls for
seconds behind a saturated device. :class:`FaultFS` injects all of these,
deterministically, at the three choke points every durable write/read in
this codebase already flows through (:mod:`repro.storage.atomic`):

* ``write`` — torn write at a seeded offset, ENOSPC after N bytes, silent
  bitrot (one flipped bit *under* the payload checksum), slow I/O;
* ``replace`` — the atomic-rename step fails, leaving only the temp file;
* ``read_bytes`` — read returns EIO, or is slowed.

All randomness comes from a :class:`~repro.util.randpool.RandPool` over the
plan's seed, so a (workload seed, disk-fault plan) pair reproduces the same
fault sequence byte-for-byte — faulty runs are as replayable as clean ones.
Torn/ENOSPC/rename faults are *transient* (each operation draws afresh, so
the atomic layer's bounded retry normally recovers); bitrot is persistent
by nature and is caught later by artifact checksums (``repro fsck``).

The injector is the ``disk`` fault family of
:class:`repro.faults.plan.FaultPlan` (``--faults disk``): it reads the
plan's ``disk_*`` rates and its seed, which ``FaultPlan`` validates.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

import numpy as np

from repro.util.randpool import RandPool
from repro.util.seeds import SeedSequencer

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan


class FaultFS:
    """Injects a :class:`~repro.faults.plan.FaultPlan`'s disk faults at the
    storage layer's I/O hooks. Rates are per storage *operation* (one
    write, one rename, one read), not per byte."""

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

    def _maybe_stall(self) -> None:
        if self._hit(self.plan.disk_slow_io_rate):
            self._count("slow_io")
            time.sleep(self.plan.disk_slow_io_seconds)

    # -- storage hooks (called by repro.storage.atomic) ----------------------
    def write(self, fd: int, data: bytes) -> int:
        """Write ``data`` to ``fd``, possibly torn / ENOSPC'd / bitrotted."""
        plan = self.plan
        self._maybe_stall()
        if self._hit(plan.disk_torn_write_rate):
            self._count("torn_write")
            cut = self.pool.integer(len(data)) if data else 0
            if cut:
                os.write(fd, data[:cut])
            raise OSError(5, f"faultfs: torn write after {cut} of {len(data)} bytes")
        if self._hit(plan.disk_enospc_rate):
            self._count("enospc")
            landed = min(plan.disk_enospc_after_bytes, len(data))
            if landed:
                os.write(fd, data[:landed])
            raise OSError(28, f"faultfs: no space left after {landed} bytes")
        if self._hit(plan.disk_bitrot_rate) and data:
            self._count("bitrot")
            corrupt = bytearray(data)
            pos = self.pool.integer(len(corrupt))
            corrupt[pos] ^= 1 << self.pool.integer(8)
            data = bytes(corrupt)
        return os.write(fd, data)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        """``os.replace`` with an injectable rename failure."""
        self._maybe_stall()
        if self._hit(self.plan.disk_rename_fail_rate):
            self._count("rename_fail")
            raise OSError(5, f"faultfs: rename {src} -> {dst} failed")
        os.replace(src, dst)

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        """Read a whole file with an injectable EIO."""
        self._maybe_stall()
        if self._hit(self.plan.disk_read_eio_rate):
            self._count("read_eio")
            raise OSError(5, f"faultfs: read error on {path}")
        return Path(path).read_bytes()


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

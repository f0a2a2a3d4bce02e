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

The injector is a new fault family of :class:`repro.faults.FaultPlan`
(``--faults disk``); :meth:`FaultPlan.disk_plan` converts a plan's
``disk_*`` rates into the :class:`DiskFaultPlan` consumed here.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

import numpy as np

from repro.util.randpool import RandPool
from repro.util.seeds import SeedSequencer


@dataclass(frozen=True)
class DiskFaultPlan:
    """Seeded, declarative description of the disk faults to inject.

    Rates are per storage *operation* (one write, one rename, one read),
    not per byte. Attributes:

        seed: root seed of the injector's private random stream.
        torn_write_rate: P(per write) only a seeded prefix of the data
            lands before the write fails with EIO — the power-loss tear.
        enospc_rate: P(per write) the device "fills up" after
            ``enospc_after_bytes`` bytes and the write fails with ENOSPC.
        enospc_after_bytes: bytes that land before an injected ENOSPC.
        rename_fail_rate: P(per rename) the atomic ``os.replace`` fails
            with EIO, leaving the temp file behind.
        bitrot_rate: P(per write) one bit of the data is silently flipped
            before it lands — undetectable until a checksum is verified.
        read_eio_rate: P(per read) the read fails with EIO.
        slow_io_rate: P(per operation) the operation stalls for
            ``slow_io_seconds`` first.
        slow_io_seconds: wall-clock length of an injected I/O stall.
    """

    seed: int = 0
    torn_write_rate: float = 0.0
    enospc_rate: float = 0.0
    enospc_after_bytes: int = 64
    rename_fail_rate: float = 0.0
    bitrot_rate: float = 0.0
    read_eio_rate: float = 0.0
    slow_io_rate: float = 0.0
    slow_io_seconds: float = 0.02

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"DiskFaultPlan.{f.name}={value!r}: must be in [0, 1]")
            if f.name.endswith(("_bytes", "_seconds")) and value < 0:
                raise ValueError(f"DiskFaultPlan.{f.name}={value!r}: must be >= 0")

    @property
    def any_enabled(self) -> bool:
        """True when at least one disk fault has a non-zero rate."""
        return any(
            getattr(self, f.name) > 0.0 for f in fields(self) if f.name.endswith("_rate")
        )


class FaultFS:
    """Injects a :class:`DiskFaultPlan` at the storage layer's I/O hooks."""

    def __init__(self, plan: DiskFaultPlan) -> None:
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
        if self._hit(self.plan.slow_io_rate):
            self._count("slow_io")
            time.sleep(self.plan.slow_io_seconds)

    # -- storage hooks (called by repro.storage.atomic) ----------------------
    def write(self, fd: int, data: bytes) -> int:
        """Write ``data`` to ``fd``, possibly torn / ENOSPC'd / bitrotted."""
        plan = self.plan
        self._maybe_stall()
        if self._hit(plan.torn_write_rate):
            self._count("torn_write")
            cut = self.pool.integer(len(data)) if data else 0
            if cut:
                os.write(fd, data[:cut])
            raise OSError(5, f"faultfs: torn write after {cut} of {len(data)} bytes")
        if self._hit(plan.enospc_rate):
            self._count("enospc")
            landed = min(plan.enospc_after_bytes, len(data))
            if landed:
                os.write(fd, data[:landed])
            raise OSError(28, f"faultfs: no space left after {landed} bytes")
        if self._hit(plan.bitrot_rate) and data:
            self._count("bitrot")
            corrupt = bytearray(data)
            pos = self.pool.integer(len(corrupt))
            corrupt[pos] ^= 1 << self.pool.integer(8)
            data = bytes(corrupt)
        return os.write(fd, data)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        """``os.replace`` with an injectable rename failure."""
        self._maybe_stall()
        if self._hit(self.plan.rename_fail_rate):
            self._count("rename_fail")
            raise OSError(5, f"faultfs: rename {src} -> {dst} failed")
        os.replace(src, dst)

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        """Read a whole file with an injectable EIO."""
        self._maybe_stall()
        if self._hit(self.plan.read_eio_rate):
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
    target: Union[DiskFaultPlan, FaultFS, None]
) -> Iterator[Optional[FaultFS]]:
    """Scope a fault injector around a block, restoring the previous one.

    Accepts a plan (a fresh :class:`FaultFS` is built), an injector, or
    None (the block runs clean even if an outer session is active).
    """
    ffs: Optional[FaultFS]
    if isinstance(target, DiskFaultPlan):
        ffs = FaultFS(target) if target.any_enabled else None
    else:
        ffs = target
    previous = _ACTIVE
    install_faultfs(ffs)
    try:
        yield ffs
    finally:
        install_faultfs(previous)

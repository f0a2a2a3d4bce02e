"""Two-level memory hierarchy shared by all SMT hardware contexts.

L1 instruction and data caches plus a unified L2 and a flat DRAM latency.
All levels are shared between threads (as on a real SMT), which is what
creates the inter-thread cache interference that ADTS reacts to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.memory.cache import Cache, CacheConfig
from repro.memory.mshr import MSHRFile


@dataclass(frozen=True)
class HierarchyConfig:
    """Latencies and geometry for the whole hierarchy.

    Latencies are *additional* cycles past the L1 access, mirroring the
    SimpleScalar convention the paper's simulator inherits.
    """

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 64, 4, "l1i"))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 64, 4, "l1d"))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(1024 * 1024, 64, 8, "l2"))
    l1_latency: int = 1
    l2_latency: int = 10
    mem_latency: int = 100
    mshr_entries: int = 16

    def __post_init__(self) -> None:
        if self.l1_latency < 1:
            raise ValueError("l1_latency must be >= 1")
        if not self.l1_latency <= self.l2_latency <= self.mem_latency:
            raise ValueError("latencies must be monotonic: L1 <= L2 <= memory")


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory probe.

    Attributes:
        latency: total cycles until the data is available.
        l1_miss: the access missed in its L1.
        l2_miss: the access also missed in the shared L2.
        mshr_stall: the access could not even allocate a miss entry
            (MSHR file full) — the requester must retry; ``latency`` then
            holds a single-cycle retry penalty.
    """

    latency: int
    l1_miss: bool = False
    l2_miss: bool = False
    mshr_stall: bool = False


class MemoryHierarchy:
    """Shared L1I/L1D + unified L2 + DRAM with a data-side MSHR file.

    An optional :class:`~repro.memory.prefetch.Prefetcher` observes L1D
    demand misses and pulls predicted lines into the shared L2.
    """

    def __init__(self, config: HierarchyConfig | None = None, prefetcher=None) -> None:
        self.config = config or HierarchyConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.mshr = MSHRFile(self.config.mshr_entries, "l1d-mshr")
        self.prefetcher = prefetcher
        self.prefetch_fills = 0
        # L1 hits vastly outnumber misses and the result is immutable, so
        # every hit shares one frozen instance instead of allocating.
        self._l1_hit = AccessResult(latency=self.config.l1_latency)
        # I-side fill buffer: line -> cycle its outstanding fill arrives.
        # The instruction side needs the same decoupling the MSHR file
        # gives the data side: a thread that re-probes after its miss
        # latency must be served by the *returning fill* even when a
        # conflicting fill evicted the line from the tags meanwhile.
        # Without it, N>ways threads whose hot lines alias one set can
        # thrash true-LRU in perfect synchrony and livelock fetch.
        self._ifetch_fills: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _miss_path(self, cache: Cache, addr: int) -> AccessResult:
        """Resolve an L1 miss through L2/DRAM and fill both levels."""
        cfg = self.config
        if self.l2.access(addr):
            latency = cfg.l1_latency + cfg.l2_latency
            l2_miss = False
        else:
            latency = cfg.l1_latency + cfg.l2_latency + cfg.mem_latency
            l2_miss = True
        cache.fill(addr)
        return AccessResult(latency=latency, l1_miss=True, l2_miss=l2_miss)

    #: cycles past fill arrival during which the fill buffer may still
    #: serve a re-probe (covers TSU scheduling delay on the retry).
    _IFETCH_FILL_GRACE = 64

    def ifetch(self, addr: int, now: int = 0) -> AccessResult:
        """Instruction-cache probe for the line holding ``addr``."""
        if self.l1i.access(addr):
            return self._l1_hit
        line = self.l1i.line_of(addr)
        fills = self._ifetch_fills
        ready = fills.get(line)
        if ready is not None:
            if now < ready:
                # Secondary miss: the fill is still in flight.
                return AccessResult(latency=max(1, ready - now), l1_miss=True)
            if now <= ready + self._IFETCH_FILL_GRACE:
                # The fill arrived (the tag may have been evicted by a
                # conflicting fill since): serve from the fill buffer.
                # The access() above already re-installed the line.
                del fills[line]
                return self._l1_hit
            # Stale entry: fall through to a fresh miss.
        result = self._miss_path(self.l1i, addr)
        fills[line] = now + result.latency
        if len(fills) > 32:
            cutoff = now - self._IFETCH_FILL_GRACE
            for stale in [ln for ln, rdy in fills.items() if rdy < cutoff]:
                del fills[stale]
        return result

    def load(self, addr: int, now: int = 0) -> AccessResult:
        """Data load. Coalesces with outstanding misses via the MSHR file."""
        if self.l1d.access(addr):
            return self._l1_hit
        line = self.l1d.line_of(addr)
        outstanding = self.mshr.lookup(line)
        if outstanding >= 0:
            # Secondary miss: wait for the in-flight fill, at least one cycle.
            self.mshr.coalesced += 1
            return AccessResult(latency=max(1, outstanding - now), l1_miss=True)
        if self.mshr.full:
            return AccessResult(latency=1, l1_miss=True, mshr_stall=True)
        result = self._miss_path(self.l1d, addr)
        self.mshr.allocate(line, now + result.latency)
        if self.prefetcher is not None:
            for target in self.prefetcher.on_miss(addr):
                if not self.l2.contains(target):
                    self.l2.fill(target)
                    self.prefetch_fills += 1
        return result

    def store(self, addr: int, now: int = 0) -> AccessResult:
        """Data store; modeled write-allocate, same timing path as loads.

        Stores retire through the store queue so their latency rarely sits
        on the critical path, but they still disturb the caches, which is
        what matters for inter-thread interference.
        """
        return self.load(addr, now)

    def tick(self, now: int) -> None:
        """Advance time: retire completed MSHR entries."""
        self.mshr.retire_ready(now)

    def reset(self) -> None:
        """Flush every level, the MSHR file, the I-fill buffer and the
        prefetcher, so the hierarchy answers like a fresh one."""
        self.l1i.reset()
        self.l1d.reset()
        self.l2.reset()
        self.mshr.reset()
        self._ifetch_fills.clear()
        self.prefetch_fills = 0
        if self.prefetcher is not None:
            self.prefetcher.reset()

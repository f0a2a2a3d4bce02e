"""Set-associative cache with true-LRU replacement.

Tag state lives in plain Python lists (a row per set, built at the set's
first fill, one slot per way): a probe is a C-speed ``list.index`` over a
4/8-entry row. This is the hot path of the memory hierarchy, called once
per load/store/ifetch — the original NumPy layout paid several
array-dispatch round trips per probe, which dominated the per-access cost
at these row sizes.

Until its first fill a set holds ``None`` in place of its tag and LRU
rows, and every lookup reads that as all ways invalid. Short runs touch
few sets (a 1,536-cycle 8-thread sweep cell touches ~300 of the default
hierarchy's 2,304), so a processor, and every pickle of it that batch
and oracle forks copy, carries only those rows. :meth:`Cache.reset`
drops every row.
"""

from __future__ import annotations

from dataclasses import dataclass

_INVALID = -1


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        size_bytes: total capacity.
        line_bytes: block size (must be a power of two).
        ways: associativity.
        name: label used in stats and error messages.
    """

    size_bytes: int
    line_bytes: int = 64
    ways: int = 4
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError(f"{self.name}: all geometry fields must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"{self.name}: line_bytes must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line_bytes*ways = {self.line_bytes * self.ways}"
            )
        n_sets = self.size_bytes // (self.line_bytes * self.ways)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: number of sets ({n_sets}) must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def offset_bits(self) -> int:
        return int(self.line_bytes).bit_length() - 1


class Cache:
    """A single cache level.

    Probe/fill are separated so callers can model MSHR behaviour (probe,
    and only fill once the miss completes), but the common fast path is
    :meth:`access`, which probes and fills in one call and returns whether
    the access hit.
    """

    __slots__ = (
        "config", "_set_mask", "_offset_bits", "_tags", "_lru", "_stamp",
        "hits", "misses", "evictions",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._set_mask = config.n_sets - 1
        self._offset_bits = config.offset_bits
        # tags[set][way]; -1 == invalid. lru[set][way]: higher == more recent.
        # Both rows of a set are built at its first fill (_new_rows); None
        # until then, read as all ways invalid.
        self._tags = [None] * config.n_sets
        self._lru = [None] * config.n_sets
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- address helpers ---------------------------------------------------
    def line_of(self, addr: int) -> int:
        """Line number (address with the offset bits stripped)."""
        return addr >> self._offset_bits

    def _index(self, line: int) -> int:
        return line & self._set_mask

    def _new_rows(self, idx: int) -> list:
        """Build set ``idx``'s rows (all ways invalid); return its tag row."""
        ways = self.config.ways
        self._lru[idx] = [0] * ways
        row = self._tags[idx] = [_INVALID] * ways
        return row

    # -- operations ---------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Return True on hit, updating LRU but never filling."""
        line = addr >> self._offset_bits
        idx = line & self._set_mask
        row = self._tags[idx]
        if row is None or line not in row:
            self.misses += 1
            return False
        self._stamp += 1
        self._lru[idx][row.index(line)] = self._stamp
        self.hits += 1
        return True

    def fill(self, addr: int) -> int:
        """Insert the line for ``addr``; return the evicted line or -1.

        Filling an already-present line just refreshes its LRU stamp.
        """
        line = addr >> self._offset_bits
        idx = line & self._set_mask
        row = self._tags[idx]
        if row is None:
            row = self._new_rows(idx)
        self._stamp += 1
        try:
            way = row.index(line)
        except ValueError:
            pass
        else:
            self._lru[idx][way] = self._stamp
            return -1
        try:
            way = row.index(_INVALID)
            victim = -1
        except ValueError:
            lru_row = self._lru[idx]
            way = lru_row.index(min(lru_row))
            victim = row[way]
            self.evictions += 1
        row[way] = line
        self._lru[idx][way] = self._stamp
        return victim

    def access(self, addr: int) -> bool:
        """Probe and fill-on-miss in one step. Returns True on hit.

        One row scan for the hit case (identical stats/LRU effects to
        ``probe()`` then ``fill()``).
        """
        line = addr >> self._offset_bits
        idx = line & self._set_mask
        row = self._tags[idx]
        if row is None:
            row = self._new_rows(idx)
        try:
            way = row.index(line)
        except ValueError:
            self.misses += 1
        else:
            self._stamp += 1
            self._lru[idx][way] = self._stamp
            self.hits += 1
            return True
        self._stamp += 1
        try:
            way = row.index(_INVALID)
        except ValueError:
            lru_row = self._lru[idx]
            way = lru_row.index(min(lru_row))
            self.evictions += 1
        row[way] = line
        self._lru[idx][way] = self._stamp
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive lookup: no LRU update, no stats."""
        line = addr >> self._offset_bits
        row = self._tags[line & self._set_mask]
        return row is not None and line in row

    def reset(self) -> None:
        """Flush all contents and statistics (dropping every set's rows)."""
        self._tags = [None] * self.config.n_sets
        self._lru = [None] * self.config.n_sets
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            1 for row in self._tags if row is not None
            for tag in row if tag != _INVALID
        )

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.config
        return (
            f"Cache({c.name}: {c.size_bytes}B {c.ways}-way {c.line_bytes}B lines, "
            f"{self.hits} hits / {self.misses} misses)"
        )

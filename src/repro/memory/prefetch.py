"""Hardware prefetchers (optional; default off to match the paper's
SimpleScalar-era baseline).

Two classic designs, both prefetching into the shared L2:

* :class:`NextLinePrefetcher` — on an L1D miss, fetch the next sequential
  line (tagged prefetch);
* :class:`StridePrefetcher` — a PC-less, region-based stride table: detects
  constant-stride streams per 4 KB region and runs ``STRIDE_DEGREE`` lines
  ahead.

Prefetchers are an *extension* experiment (A6): streaming FP workloads
(swim/mgrid-class) should benefit most, which is also where L1MISSCOUNT's
advantage shrinks — a nice interaction with the paper's policy space.
"""

from __future__ import annotations

import abc
from typing import Dict, List

_LINE = 64
_REGION_SHIFT = 12  # 4 KB stride-detection regions

#: Lines an armed stride stream prefetches ahead.
STRIDE_DEGREE = 2
#: Regions the stride table tracks before it evicts the oldest.
STRIDE_TABLE_ENTRIES = 64


class Prefetcher(abc.ABC):
    """Observes miss addresses; proposes lines to pull into L2."""

    def __init__(self) -> None:
        self.issued = 0

    @abc.abstractmethod
    def on_miss(self, addr: int) -> List[int]:
        """React to a demand miss at ``addr``; returns addresses to
        prefetch (line-aligned)."""

    def reset(self) -> None:
        """Clear issue statistics (and learned state in subclasses)."""
        self.issued = 0


class NextLinePrefetcher(Prefetcher):
    """Fetch the next sequential line on every miss."""

    def on_miss(self, addr: int) -> List[int]:
        self.issued += 1
        return [((addr >> 6) << 6) + _LINE]


class StridePrefetcher(Prefetcher):
    """Region-based stride detection.

    Per 4 KB region, remember the last miss address and last stride; two
    consecutive equal strides arm the entry, after which each miss
    prefetches ``STRIDE_DEGREE`` lines ahead along the stride.
    """

    def __init__(self) -> None:
        super().__init__()
        # region -> (last_addr, last_stride, confirmed)
        self._table: Dict[int, tuple] = {}

    def on_miss(self, addr: int) -> List[int]:
        region = addr >> _REGION_SHIFT
        entry = self._table.get(region)
        out: List[int] = []
        if entry is not None:
            last_addr, last_stride, confirmed = entry
            stride = addr - last_addr
            if stride != 0 and stride == last_stride:
                # Two consecutive equal strides arm the entry; emit
                # immediately on arming and on every subsequent hit.
                out = [addr + stride * (i + 1) for i in range(STRIDE_DEGREE)]
                self.issued += len(out)
                self._table[region] = (addr, stride, True)
            else:
                self._table[region] = (addr, stride, False)
        else:
            if len(self._table) >= STRIDE_TABLE_ENTRIES:
                self._table.pop(next(iter(self._table)))
            self._table[region] = (addr, 0, False)
        return out

    def reset(self) -> None:
        super().reset()
        self._table.clear()

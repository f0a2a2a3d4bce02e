"""Tests for the hardware prefetchers."""

import pytest

from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetch import (
    STRIDE_TABLE_ENTRIES,
    NextLinePrefetcher,
    StridePrefetcher,
)


class TestNextLine:
    def test_prefetches_next_lines(self):
        p = NextLinePrefetcher()
        assert p.on_miss(0x1000) == [0x1040]
        assert p.on_miss(0x1040) == [0x1080]
        assert p.issued == 2

    def test_line_alignment(self):
        p = NextLinePrefetcher()
        assert p.on_miss(0x1008) == [0x1040]

    def test_reset(self):
        p = NextLinePrefetcher()
        p.on_miss(0)
        p.reset()
        assert p.issued == 0


class TestStride:
    def test_needs_two_confirming_strides(self):
        p = StridePrefetcher()
        assert p.on_miss(0x1000) == []  # allocate
        assert p.on_miss(0x1040) == []  # learn stride
        assert p.on_miss(0x1080) == [0x10C0, 0x1100]  # confirmed: prefetch ahead

    def test_stride_change_resets_confidence(self):
        p = StridePrefetcher()
        p.on_miss(0x1000)
        p.on_miss(0x1040)
        p.on_miss(0x1080)
        assert p.on_miss(0x1200) == []  # broken stride
        assert p.on_miss(0x1240) == []  # relearn (one confirmation needed)
        assert p.on_miss(0x1280) != []

    def test_regions_tracked_independently(self):
        p = StridePrefetcher()
        for base in (0x10000, 0x20000):
            p.on_miss(base)
            p.on_miss(base + 0x40)
        assert p.on_miss(0x10000 + 0x80) != []
        assert p.on_miss(0x20000 + 0x80) != []

    def test_table_bounded(self):
        p = StridePrefetcher()
        for i in range(STRIDE_TABLE_ENTRIES + 12):
            p.on_miss(i << 12)
        assert len(p._table) == STRIDE_TABLE_ENTRIES


class TestHierarchyIntegration:
    def test_prefetch_fills_l2(self):
        h = MemoryHierarchy(prefetcher=NextLinePrefetcher())
        h.load(0x5000, 0)
        assert h.prefetch_fills >= 1
        assert h.l2.contains(0x5040)

    def test_streaming_benefits_from_stride_prefetch(self):
        import numpy as np

        from repro.workloads.addrgen import DataAddressGenerator
        from repro.workloads.profiles import get_profile

        def l2_miss_rate(prefetcher):
            h = MemoryHierarchy(prefetcher=prefetcher)
            g = DataAddressGenerator(get_profile("swim"), 0, np.random.default_rng(3))
            now = 0
            for _ in range(40_000):
                h.load(g.next_address(), now)
                now += 5
                h.tick(now)
            return h.l2.miss_rate

        base = l2_miss_rate(None)
        pref = l2_miss_rate(StridePrefetcher())
        assert pref < base, "stride prefetch must cut swim's L2 miss rate"

    def test_config_plumbs_prefetcher(self):
        from repro import build_processor
        from repro.smt.config import SMTConfig

        for name in ("none", "nextline", "stride"):
            cfg = SMTConfig(num_threads=2, prefetcher=name)
            proc = build_processor(mix=["swim", "mgrid"], config=cfg,
                                   quantum_cycles=512)
            proc.run(1000)
            if name == "none":
                assert proc.hierarchy.prefetcher is None
            else:
                assert proc.hierarchy.prefetcher is not None

    def test_unknown_prefetcher_rejected(self):
        from repro.smt.config import SMTConfig

        with pytest.raises(ValueError):
            SMTConfig(prefetcher="oracle")

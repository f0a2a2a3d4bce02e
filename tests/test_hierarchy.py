"""Unit tests for the two-level memory hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.prefetch import NextLinePrefetcher, StridePrefetcher


def tiny(prefetcher=None):
    return MemoryHierarchy(
        HierarchyConfig(
            l1i=CacheConfig(1024, 64, 2, "l1i"),
            l1d=CacheConfig(1024, 64, 2, "l1d"),
            l2=CacheConfig(8192, 64, 4, "l2"),
            l1_latency=1,
            l2_latency=10,
            mem_latency=100,
            mshr_entries=2,
        ),
        prefetcher=prefetcher,
    )


class TestHierarchyConfig:
    def test_rejects_non_monotonic_latencies(self):
        with pytest.raises(ValueError):
            HierarchyConfig(l2_latency=5, mem_latency=2)

    def test_rejects_zero_l1_latency(self):
        with pytest.raises(ValueError):
            HierarchyConfig(l1_latency=0)


class TestLoadPath:
    def test_l1_hit_latency(self):
        h = tiny()
        h.load(0x100, 0)
        r = h.load(0x100, 1)
        assert r.latency == 1
        assert not r.l1_miss

    def test_cold_miss_goes_to_memory(self):
        h = tiny()
        r = h.load(0x100, 0)
        assert r.l1_miss and r.l2_miss
        assert r.latency == 1 + 10 + 100

    def test_l2_hit_after_l1_eviction(self):
        h = tiny()
        h.load(0x100, 0)
        # Evict from tiny L1 by filling its set (2 ways, 8 sets).
        n_sets = h.l1d.config.n_sets
        h.load(0x100 + n_sets * 64, 0)
        h.load(0x100 + 2 * n_sets * 64, 0)
        assert not h.l1d.contains(0x100)
        h.tick(10_000)  # clear MSHRs
        r = h.load(0x100, 10_000)
        assert r.l1_miss and not r.l2_miss
        assert r.latency == 1 + 10

    def test_mshr_coalescing_secondary_miss(self):
        h = tiny()
        first = h.load(0x200, 0)
        # Force the second access to miss L1 again: two conflicting fills
        # evict the line from its 2-way set.
        n_sets = h.l1d.config.n_sets
        h.l1d.fill(0x200 + n_sets * 64)
        h.l1d.fill(0x200 + 2 * n_sets * 64)
        second = h.load(0x200 + 8, 5)
        assert second.l1_miss
        # Secondary miss waits for the in-flight fill, not a fresh trip.
        assert second.latency == max(1, first.latency - 5)

    def test_mshr_full_stall(self):
        h = tiny()
        h.load(0x1000, 0)
        h.load(0x2000, 0)
        r = h.load(0x3000, 0)
        assert r.mshr_stall
        assert r.latency == 1

    def test_tick_frees_mshr(self):
        h = tiny()
        h.load(0x1000, 0)
        h.load(0x2000, 0)
        h.tick(1000)
        r = h.load(0x3000, 1000)
        assert not r.mshr_stall

    def test_store_uses_same_path(self):
        h = tiny()
        r = h.store(0x500, 0)
        assert r.l1_miss
        h.tick(10_000)
        assert h.store(0x500, 10_000).latency == 1


class TestIfetchPath:
    def test_ifetch_separate_from_dcache(self):
        h = tiny()
        h.load(0x700, 0)
        h.tick(10_000)
        r = h.ifetch(0x700, 10_000)
        assert r.l1_miss  # L1I cold even though L1D holds the line
        assert not r.l2_miss  # but the shared L2 has it

    def test_ifetch_hit(self):
        h = tiny()
        h.ifetch(0x700, 0)
        assert not h.ifetch(0x700, 1).l1_miss


class TestReset:
    def test_reset_clears_all_levels(self):
        h = tiny()
        h.load(0x900, 0)
        h.ifetch(0x900, 0)
        h.reset()
        assert h.l1d.occupancy == 0
        assert h.l1i.occupancy == 0
        assert h.l2.occupancy == 0
        assert len(h.mshr) == 0

    def test_reset_forgets_prefetcher_state(self):
        h = MemoryHierarchy(prefetcher=StridePrefetcher())
        strided = [0x10000, 0x10200, 0x10400]  # 512 B apart, one 4 KB region
        for i, addr in enumerate(strided):
            h.load(addr, i * 1000)
        assert h.prefetch_fills == 2
        h.reset()
        for i, addr in enumerate(strided):
            h.load(addr, i * 1000)
        assert h.prefetch_fills == 2
        assert h.prefetcher.issued == 2


def _replay(h, ops):
    out = []
    now = 0
    for kind, addr, dt in ops:
        now += dt
        if kind == "tick":
            h.tick(now)
        else:
            out.append(getattr(h, kind)(addr, now))
    return out, h.prefetch_fills, h.prefetcher.issued


_MEM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "ifetch", "tick"]),
        st.integers(min_value=0, max_value=255).map(lambda k: k * 128),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([StridePrefetcher, NextLinePrefetcher]), _MEM_OPS, _MEM_OPS)
def test_reset_hierarchy_answers_like_a_fresh_one(prefetcher, before, after):
    """After reset() a hierarchy returns the same results, prefetch fills
    and prefetcher issue count as a fresh one, whatever ran before."""
    used = tiny(prefetcher())
    _replay(used, before)
    used.reset()
    assert _replay(used, after) == _replay(tiny(prefetcher()), after)

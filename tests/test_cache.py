"""Unit and property tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, CacheConfig


def make(size=4096, line=64, ways=2, name="c"):
    return Cache(CacheConfig(size, line, ways, name))


class TestCacheConfig:
    def test_basic_geometry(self):
        cfg = CacheConfig(32 * 1024, 64, 4)
        assert cfg.n_sets == 128
        assert cfg.offset_bits == 6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig(0, 64, 4)
        with pytest.raises(ValueError):
            CacheConfig(4096, -1, 4)
        with pytest.raises(ValueError):
            CacheConfig(4096, 64, 0)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheConfig(4096, 48, 4)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(4096 + 64, 64, 4)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(3 * 64 * 2, 64, 2)  # 3 sets


class TestCacheBasics:
    def test_first_access_misses(self):
        c = make()
        assert not c.access(0x1000)
        assert c.misses == 1 and c.hits == 0

    def test_second_access_hits(self):
        c = make()
        c.access(0x1000)
        assert c.access(0x1000)
        assert c.hits == 1

    def test_same_line_different_offset_hits(self):
        c = make(line=64)
        c.access(0x1000)
        assert c.access(0x1000 + 63)
        assert not c.access(0x1000 + 64)  # next line

    def test_contains_is_nondestructive(self):
        c = make()
        c.access(0x2000)
        hits, misses = c.hits, c.misses
        assert c.contains(0x2000)
        assert not c.contains(0x4000)
        assert (c.hits, c.misses) == (hits, misses)

    def test_reset_clears_everything(self):
        c = make()
        for i in range(32):
            c.access(i * 64)
        c.reset()
        assert c.occupancy == 0
        assert c.hits == 0 and c.misses == 0
        assert not c.contains(0)

    def test_occupancy_grows_to_capacity(self):
        c = make(size=1024, line=64, ways=2)  # 16 lines total
        for i in range(64):
            c.access(i * 64)
        assert c.occupancy == 16

    def test_miss_rate(self):
        c = make()
        c.access(0)
        c.access(0)
        assert c.miss_rate == pytest.approx(0.5)

    def test_empty_miss_rate_zero(self):
        assert make().miss_rate == 0.0

    def test_line_of(self):
        c = make(line=64)
        assert c.line_of(0) == 0
        assert c.line_of(63) == 0
        assert c.line_of(64) == 1


class TestLRUReplacement:
    def test_lru_victim_in_set(self):
        # 2-way: fill a set with A, B; touch A; insert C -> B evicted.
        c = make(size=2 * 64 * 4, line=64, ways=2)  # 4 sets
        n_sets = c.config.n_sets
        a, b, d = 0, n_sets * 64, 2 * n_sets * 64  # same set 0
        c.access(a)
        c.access(b)
        c.access(a)  # refresh A
        c.access(d)  # evicts B
        assert c.contains(a)
        assert not c.contains(b)
        assert c.contains(d)
        assert c.evictions == 1

    def test_fill_refreshes_existing_line(self):
        c = make(size=2 * 64 * 4, line=64, ways=2)
        n_sets = c.config.n_sets
        a, b, d = 0, n_sets * 64, 2 * n_sets * 64
        c.fill(a)
        c.fill(b)
        c.fill(a)  # refresh, not duplicate
        victim = c.fill(d)
        assert victim == c.line_of(b)

    def test_fill_returns_minus_one_when_no_eviction(self):
        c = make()
        assert c.fill(0x5000) == -1

    def test_associativity_holds_ways_conflicting_lines(self):
        c = make(size=4 * 64 * 8, line=64, ways=4)  # 8 sets, 4 ways
        n_sets = c.config.n_sets
        lines = [i * n_sets * 64 for i in range(4)]
        for addr in lines:
            c.access(addr)
        assert all(c.contains(a) for a in lines)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
def test_cache_matches_reference_lru(addresses):
    """The NumPy cache must behave exactly like a reference LRU model."""
    c = make(size=1024, line=64, ways=2)  # 8 sets, 2 ways
    n_sets = c.config.n_sets
    reference = {s: [] for s in range(n_sets)}  # set -> [lines], MRU last
    for addr in addresses:
        line = addr >> 6
        s = line & (n_sets - 1)
        expected_hit = line in reference[s]
        assert c.access(addr) == expected_hit
        if expected_hit:
            reference[s].remove(line)
        elif len(reference[s]) == 2:
            reference[s].pop(0)
        reference[s].append(line)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(addresses):
    c = make(size=512, line=64, ways=2)  # 8 lines
    for addr in addresses:
        c.access(addr)
        assert c.occupancy <= 8
    assert c.hits + c.misses == len(addresses)


def _parent_layout(cache):
    """Build every set's rows up front, the layout the cache had before it
    built a set's rows at that set's first fill."""
    ways, n_sets = cache.config.ways, cache.config.n_sets
    cache._tags = [[-1] * ways for _ in range(n_sets)]
    cache._lru = [[0] * ways for _ in range(n_sets)]
    return cache


_ADDR = st.integers(min_value=0, max_value=1 << 14)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["access", "probe", "fill", "contains"]), _ADDR),
        st.just(("reset", 0)),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_lazy_rows_match_eager_layout(ops):
    """A cache that builds rows at a set's first fill answers every operation,
    counter and occupancy exactly like one whose rows all exist up front."""
    lazy = make(size=1024, line=64, ways=2)  # 8 sets, 2 ways
    eager = _parent_layout(make(size=1024, line=64, ways=2))
    for op, addr in ops:
        if op == "reset":
            lazy.reset()
            eager.reset()
            _parent_layout(eager)  # the old reset kept every row, all invalid
            continue
        assert getattr(lazy, op)(addr) == getattr(eager, op)(addr)
        assert (lazy.hits, lazy.misses, lazy.evictions) == (
            eager.hits, eager.misses, eager.evictions)
        assert lazy.occupancy == eager.occupancy


class TestLazyRows:
    def test_fresh_cache_holds_no_rows(self):
        c = make()
        assert all(row is None for row in c._tags + c._lru)
        assert not c.probe(0x40) and not c.contains(0x40)
        assert c.occupancy == 0
        assert all(row is None for row in c._tags)  # lookups build nothing

    def test_first_fill_builds_only_its_set(self):
        c = make()
        c.access(0x1000)
        built = [i for i, row in enumerate(c._tags) if row is not None]
        assert built == [c.line_of(0x1000) & (c.config.n_sets - 1)]
        assert len(c._tags[built[0]]) == c.config.ways

    def test_reset_drops_rows(self):
        c = make()
        for i in range(32):
            c.access(i * 64)
        c.reset()
        assert all(row is None for row in c._tags + c._lru)
        assert (c.hits, c.misses, c.evictions) == (0, 0, 0)

    def test_processor_builds_rows_for_touched_sets_only(self):
        from repro import build_processor

        proc = build_processor(mix="mix05", num_threads=8)
        h = proc.hierarchy
        for cache in (h.l1i, h.l1d, h.l2):
            assert all(row is None for row in cache._tags + cache._lru)
        proc.run(1536)
        l2 = h.l2
        built = {i for i, row in enumerate(l2._tags) if row is not None}
        # Nothing invalidates lines in a run, so a set some fill touched
        # still holds a valid line, and an untouched set has no row.
        touched = {i for i, row in enumerate(l2._tags)
                   if row is not None and any(tag != -1 for tag in row)}
        assert built == touched
        assert built == {i for i, row in enumerate(l2._lru) if row is not None}
        assert 0 < len(built) < l2.config.n_sets
        assert len(built) <= l2.misses

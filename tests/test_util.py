"""Unit and property tests for RandPool and SeedSequencer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.randpool import RandPool
from repro.util.seeds import SeedSequencer


_DRAWS = st.lists(
    st.one_of(
        st.just(("uniform", None)),
        st.tuples(st.just("geometric"), st.floats(min_value=0.5, max_value=50.0)),
        st.tuples(st.just("integer"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("bernoulli"), st.floats(min_value=0.0, max_value=1.0)),
    ),
    min_size=1,
    max_size=400,
)


class TestRandPool:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            RandPool(np.random.default_rng(0), batch=0)

    def test_uniform_in_range(self):
        pool = RandPool(np.random.default_rng(0), batch=64)
        for _ in range(500):  # crosses several batch refills
            u = pool.uniform()
            assert 0.0 <= u < 1.0

    def test_deterministic_given_seed(self):
        a = RandPool(np.random.default_rng(42))
        b = RandPool(np.random.default_rng(42))
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_geometric_mean_approx(self):
        pool = RandPool(np.random.default_rng(1))
        draws = [pool.geometric(5.0) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(5.0, rel=0.1)

    def test_geometric_support_starts_at_one(self):
        pool = RandPool(np.random.default_rng(2))
        assert min(pool.geometric(3.0) for _ in range(5000)) == 1

    def test_geometric_degenerate_mean(self):
        pool = RandPool(np.random.default_rng(3))
        assert pool.geometric(0.5) == 1
        assert pool.geometric(1.0) == 1

    def test_integer_bounds(self):
        pool = RandPool(np.random.default_rng(4))
        vals = [pool.integer(10) for _ in range(2000)]
        assert min(vals) >= 0 and max(vals) <= 9
        assert len(set(vals)) == 10  # covers the range

    def test_integer_degenerate(self):
        pool = RandPool(np.random.default_rng(5))
        assert pool.integer(1) == 0
        assert pool.integer(0) == 0

    def test_bernoulli_rate(self):
        pool = RandPool(np.random.default_rng(6))
        hits = sum(pool.bernoulli(0.3) for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.3, abs=0.02)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=2048), st.integers(min_value=1, max_value=2048),
           st.integers(min_value=0, max_value=2**32), _DRAWS)
    def test_refill_size_cannot_change_the_stream(self, batch_a, batch_b, seed, draws):
        """Pools on one seed serve the same draws whatever their refill size."""
        a = RandPool(np.random.default_rng(seed), batch=batch_a)
        b = RandPool(np.random.default_rng(seed), batch=batch_b)
        for kind, arg in draws:
            args = () if arg is None else (arg,)
            assert getattr(a, kind)(*args) == getattr(b, kind)(*args)

    def test_default_refill_serves_the_former_default_stream(self):
        """The 1,024-draw default serves the bits the former 8,192 did."""
        a = RandPool(np.random.default_rng(7))
        b = RandPool(np.random.default_rng(7), batch=8192)
        assert a.batch == 1024
        assert [a.uniform() for _ in range(20_000)] == [b.uniform() for _ in range(20_000)]


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.1, max_value=50.0))
def test_geometric_always_positive(mean):
    pool = RandPool(np.random.default_rng(0), batch=128)
    for _ in range(200):
        assert pool.geometric(mean) >= 1


class TestSeedSequencer:
    def test_same_names_same_stream(self):
        s = SeedSequencer(7)
        a = s.generator("x", 1).random(5)
        b = SeedSequencer(7).generator("x", 1).random(5)
        assert np.array_equal(a, b)

    def test_different_names_different_streams(self):
        s = SeedSequencer(7)
        a = s.generator("x", 1).random(5)
        b = s.generator("x", 2).random(5)
        assert not np.array_equal(a, b)

    def test_different_roots_different_streams(self):
        a = SeedSequencer(1).generator("x").random(5)
        b = SeedSequencer(2).generator("x").random(5)
        assert not np.array_equal(a, b)

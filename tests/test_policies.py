"""Tests for the ten fetch policies."""

import pytest

from repro.policies.base import FetchPolicy
from repro.policies.registry import POLICY_NAMES, create_policy, policy_class
from repro.smt.counters import CounterBank


def bank(n=4):
    return CounterBank(n)


class TestRegistry:
    def test_exactly_ten_policies(self):
        assert len(POLICY_NAMES) == 10

    def test_table1_names(self):
        expected = {
            "icount", "brcount", "ldcount", "memcount", "l1misscount",
            "l1imisscount", "l1dmisscount", "accipc", "stallcount", "rr",
        }
        assert set(POLICY_NAMES) == expected

    def test_create_all(self):
        for name in POLICY_NAMES:
            policy = create_policy(name)
            assert policy.name == name

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown fetch policy"):
            create_policy("magic")
        with pytest.raises(KeyError):
            policy_class("magic")

    def test_base_requires_name(self):
        class Nameless(FetchPolicy):
            def key(self, tid, counters):
                return 0

        with pytest.raises(TypeError):
            Nameless()


class TestKeys:
    def test_icount_prefers_emptier_thread(self):
        b = bank()
        b[0].iq_int = 10
        b[1].front_end = 2
        p = create_policy("icount")
        ranked = p.rank([0, 1], b)
        assert ranked[0] == 1

    def test_brcount_prefers_fewer_inflight_branches(self):
        b = bank()
        b[0].in_flight_branches = 5
        p = create_policy("brcount")
        assert p.rank([0, 1], b)[0] == 1

    def test_ldcount(self):
        b = bank()
        b[1].in_flight_loads = 3
        assert create_policy("ldcount").rank([0, 1], b)[0] == 0

    def test_memcount(self):
        b = bank()
        b[0].in_flight_mem = 4
        assert create_policy("memcount").rank([0, 1], b)[0] == 1

    def test_l1dmisscount(self):
        b = bank()
        b[0].outstanding_l1d_misses = 2
        assert create_policy("l1dmisscount").rank([0, 1], b)[0] == 1

    def test_l1imisscount(self):
        b = bank()
        b[1].recent_l1i_misses = 3.0
        assert create_policy("l1imisscount").rank([0, 1], b)[0] == 0

    def test_l1misscount_combines_both(self):
        b = bank()
        b[0].outstanding_l1d_misses = 1
        b[1].recent_l1i_misses = 0.5
        b[2].outstanding_l1d_misses = 1
        b[2].recent_l1i_misses = 2.0
        ranked = create_policy("l1misscount").rank([0, 1, 2], b)
        assert ranked[-1] == 2

    def test_accipc_prefers_high_throughput_thread(self):
        b = bank()
        b[0].total_committed, b[0].active_cycles = 100, 100
        b[1].total_committed, b[1].active_cycles = 20, 100
        assert create_policy("accipc").rank([0, 1], b)[0] == 0

    def test_stallcount(self):
        b = bank()
        b[0].recent_stalls = 9.0
        assert create_policy("stallcount").rank([0, 1], b)[0] == 1


class TestRanking:
    def test_rank_returns_all_candidates(self):
        b = bank()
        p = create_policy("icount")
        assert sorted(p.rank([2, 0, 3], b)) == [0, 2, 3]

    def test_tie_break_rotates(self):
        b = bank()  # all keys equal
        p = create_policy("icount")
        firsts = {tuple(p.rank([0, 1, 2, 3], b))[0] for _ in range(8)}
        assert len(firsts) > 1, "equal-key threads must share the top slot"

    def test_rr_cycles_through_threads(self):
        b = bank()
        p = create_policy("rr")
        firsts = [p.rank([0, 1, 2, 3], b)[0] for _ in range(4)]
        assert sorted(firsts) == [0, 1, 2, 3]

    def test_rr_ignores_counters(self):
        b = bank()
        b[0].iq_int = 99
        p = create_policy("rr")
        firsts = {p.rank([0, 1], b)[0] for _ in range(4)}
        assert 0 in firsts  # still gets its turn despite huge icount

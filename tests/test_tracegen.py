"""Tests for the synthetic trace generator."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import take

from repro.smt.instruction import BRANCH, LOAD, STORE, SYSCALL
from repro.workloads.profiles import get_profile
from repro.workloads.tracegen import TraceGenerator, make_generators


def gen(name="gzip", tid=0, seed=0):
    return TraceGenerator(get_profile(name), tid, np.random.default_rng(seed))


class TestStreamStructure:
    def test_seq_strictly_increasing(self):
        g = gen()
        seqs = [i.seq for i in take(g, 500)]
        assert seqs == list(range(500))

    def test_deps_always_older_than_self(self):
        g = gen("mcf", seed=3)
        for i in take(g, 3000):
            assert i.dep1 < i.seq
            assert i.dep2 < i.seq

    def test_deps_never_below_minus_one(self):
        g = gen(seed=4)
        for i in take(g, 1000):
            assert i.dep1 >= -1 and i.dep2 >= -1

    def test_branch_terminates_every_block(self):
        g = gen(seed=5)
        gap = 0
        max_gap = 0
        for i in take(g, 3000):
            if i.kind == BRANCH:
                max_gap = max(max_gap, gap)
                gap = 0
            else:
                gap += 1
        assert max_gap < 200  # geometric tail, but branches keep coming

    def test_branch_density_tracks_profile(self):
        g = gen("gzip")  # avg_block 7
        kinds = collections.Counter(i.kind for i in take(g, 6000))
        density = kinds[BRANCH] / 6000
        assert density == pytest.approx(1 / 7, rel=0.3)

    def test_memory_density_tracks_profile(self):
        p = get_profile("swim")
        g = gen("swim")
        kinds = collections.Counter(i.kind for i in take(g, 6000))
        assert kinds[LOAD] / 6000 == pytest.approx(p.load_frac, rel=0.35)
        assert kinds[STORE] / 6000 == pytest.approx(p.store_frac, rel=0.4)

    def test_fp_profile_emits_fp_ops(self):
        g = gen("lucas")
        assert any(i.is_fp for i in take(g, 500))

    def test_int_profile_emits_no_fp(self):
        g = gen("gzip")
        assert not any(i.is_fp for i in take(g, 2000))

    def test_loads_carry_addresses(self):
        g = gen("mcf")
        for i in take(g, 2000):
            if i.kind in (LOAD, STORE):
                assert i.addr > 0
            elif i.kind != BRANCH:
                assert i.addr == 0

    def test_branches_carry_targets_when_taken(self):
        g = gen(seed=6)
        for i in take(g, 3000):
            if i.kind == BRANCH and i.taken:
                assert i.target > 0

    def test_syscall_rate_small_but_present(self):
        g = gen("perlbmk", seed=7)  # syscall_rate 2e-5
        kinds = collections.Counter(i.kind for i in take(g, 200_000))
        assert 0 <= kinds[SYSCALL] < 40


class TestPhases:
    def test_phases_change_over_time(self):
        g = gen("gcc", seed=8)  # branchy-phase profile
        seen = set()
        for _ in range(300_000):
            g.next_instruction()
            seen.add(g.phase.name)
            if len(seen) > 1:
                break
        assert len(seen) > 1, "phase transitions should occur"

    def test_single_phase_profile_stays_put(self):
        g = gen("vortex")  # no phases declared
        take(g, 10_000)
        assert g.phase.name == "base"


class TestMakeGenerators:
    def test_one_generator_per_slot(self):
        gens = make_generators(["gzip", "mcf", "swim"], seed=0)
        assert [g.tid for g in gens] == [0, 1, 2]
        assert [g.profile.name for g in gens] == ["gzip", "mcf", "swim"]

    def test_same_app_in_two_slots_diverges(self):
        gens = make_generators(["gzip", "gzip"], seed=0)
        s0 = [i.kind for i in take(gens[0], 300)]
        s1 = [i.kind for i in take(gens[1], 300)]
        assert s0 != s1

    def test_reproducible_across_calls(self):
        a = take(make_generators(["gzip", "mcf"], seed=9)[0], 200)
        b = take(make_generators(["gzip", "mcf"], seed=9)[0], 200)
        assert [(i.kind, i.pc, i.addr) for i in a] == [(i.kind, i.pc, i.addr) for i in b]

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            make_generators(["not_a_program"])


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["gzip", "mcf", "swim", "crafty", "gcc"]), st.integers(0, 1000))
def test_trace_invariants_hold_for_any_profile_and_seed(name, seed):
    g = gen(name, seed=seed)
    prev_seq = -1
    for i in take(g, 400):
        assert i.seq == prev_seq + 1
        prev_seq = i.seq
        assert i.dep1 < i.seq and i.dep2 < i.seq
        if i.kind == BRANCH and not i.cond:
            assert i.taken

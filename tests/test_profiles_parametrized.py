"""Parametrized coverage: every built-in profile and mix must drive the
whole stack (trace generation, fast model) without pathologies."""

import numpy as np
import pytest
from conftest import take

from repro.fastmodel.model import FastMixModel
from repro.smt.instruction import BRANCH, LOAD, STORE
from repro.workloads.mixes import MIXES
from repro.workloads.profiles import PROFILES, get_profile
from repro.workloads.tracegen import TraceGenerator

ALL_PROFILES = sorted(PROFILES)
ALL_MIXES = [m.name for m in MIXES]


@pytest.mark.parametrize("name", ALL_PROFILES)
def test_every_profile_generates_sane_traces(name):
    g = TraceGenerator(get_profile(name), 0, np.random.default_rng(13))
    instrs = take(g, 2500)
    kinds = [i.kind for i in instrs]
    # Every program branches and loads.
    assert BRANCH in kinds
    assert LOAD in kinds
    # Kind densities within loose physical bounds.
    n = len(instrs)
    assert 0.02 < kinds.count(BRANCH) / n < 0.55
    assert kinds.count(LOAD) / n < 0.75
    assert kinds.count(STORE) / n < 0.4
    # Dependence sanity on the whole window.
    for i in instrs:
        assert -1 <= i.dep1 < i.seq
        assert -1 <= i.dep2 < i.seq


@pytest.mark.parametrize("name", ALL_PROFILES)
def test_every_profile_addresses_stay_in_region(name):
    from repro.workloads.addrgen import _THREAD_REGION

    g = TraceGenerator(get_profile(name), 2, np.random.default_rng(7))
    for i in take(g, 1500):
        if i.kind in (LOAD, STORE):
            assert 2 * _THREAD_REGION <= i.addr < 3 * _THREAD_REGION


@pytest.mark.parametrize("mix", ALL_MIXES)
def test_every_mix_runs_on_fast_model(mix):
    model = FastMixModel(mix, seed=1, quantum_cycles=2048)
    ipcs = [model.run_quantum("icount")[0] for _ in range(12)]
    assert all(0.05 <= x < 8.0 for x in ipcs)


@pytest.mark.parametrize("mix", ["mix01", "mix04", "mix08", "mix11"])
def test_representative_mixes_run_on_detailed_sim(mix):
    from repro import build_processor

    proc = build_processor(mix=mix, seed=2, quantum_cycles=512)
    proc.run(2500)
    assert proc.stats.committed > 200
    assert proc.stats.ipc < 8.0


@pytest.mark.parametrize("name", ALL_PROFILES)
def test_memory_bound_classification_consistent(name):
    p = get_profile(name)
    if p.memory_bound:
        # Memory-bound profiles must actually be memory-intense by one
        # axis: big footprint or weak locality.
        assert p.footprint_kb >= 2048 or p.hot_fraction < 0.55

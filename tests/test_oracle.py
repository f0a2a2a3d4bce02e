"""Tests for the oracle (clairvoyant) scheduler."""

import copy
import pickle

import pytest

import repro.core.oracle as oracle_mod
from repro.core.oracle import (
    CANDIDATES,
    OracleQuantum,
    OracleResult,
    OracleScheduler,
    oracle_upper_bound,
)


def _trials(processor):
    """Committed count of one quantum under each candidate, each run on a
    deep copy of ``processor`` (which is left where it was)."""
    trials = {}
    for name in CANDIDATES:
        trial = copy.deepcopy(processor)
        trial.set_policy(name)
        before = trial.stats.committed
        trial.run(processor.quantum_cycles)
        trials[name] = trial.stats.committed - before
    return trials


def _deepcopy_oracle(processor, quanta):
    """The oracle with a ``copy.deepcopy`` of the machine per candidate:
    the reference its pickled forks must match."""
    result = OracleResult()
    q_cycles = processor.quantum_cycles
    for q in range(quanta):
        per_policy = _trials(processor)
        chosen = max(per_policy, key=per_policy.get)
        processor.set_policy(chosen)
        before = processor.stats.committed
        processor.run(q_cycles)
        result.quanta.append(OracleQuantum(q, chosen,
                                           processor.stats.committed - before))
    result.cycles = quanta * q_cycles
    return result


class TestOracleScheduler:
    def test_runs_and_records(self, quick_proc):
        proc = quick_proc()
        result = OracleScheduler().run(proc, quanta=2)
        assert len(result.quanta) == 2
        assert result.cycles == 2 * 512
        assert result.committed > 0
        for q in result.quanta:
            assert q.chosen in CANDIDATES

    def test_chooses_the_max_trial(self, quick_proc):
        proc = quick_proc()
        oracle = OracleScheduler()
        for _ in range(2):
            trials = _trials(proc)
            (q,) = oracle.run(proc, quanta=1).quanta
            assert q.chosen == max(trials, key=trials.get)

    def test_policy_usage_sums_to_quanta(self, quick_proc):
        proc = quick_proc()
        result = OracleScheduler().run(proc, quanta=2)
        assert sum(result.policy_usage().values()) == 2

    def test_oracle_ipc_at_least_committed_trials(self, quick_proc):
        # The live quantum under the chosen policy replays the trial's RNG
        # state, so the live committed count equals the winning trial's.
        proc = quick_proc()
        oracle = OracleScheduler()
        for _ in range(2):
            trials = _trials(proc)
            (q,) = oracle.run(proc, quanta=1).quanta
            assert q.committed == trials[q.chosen]


class TestPickledForks:
    @pytest.mark.parametrize("mix", [("gzip", "crafty", "swim", "mcf"),
                                     ("mcf", "swim", "art", "equake")])
    def test_matches_deepcopy_forks(self, quick_proc, mix):
        proc, ref_proc = quick_proc(mix=mix), quick_proc(mix=mix)
        got = OracleScheduler().run(proc, quanta=3)
        want = _deepcopy_oracle(ref_proc, 3)
        assert got == want
        assert proc.fingerprint() == ref_proc.fingerprint()

    def test_one_pickle_per_boundary_one_load_per_candidate(self, quick_proc,
                                                            monkeypatch):
        calls = {"dumps": 0, "loads": 0}

        class Counting:
            HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

            @staticmethod
            def dumps(*args):
                calls["dumps"] += 1
                return pickle.dumps(*args)

            @staticmethod
            def loads(blob):
                calls["loads"] += 1
                return pickle.loads(blob)

        monkeypatch.setattr(oracle_mod, "pickle", Counting)
        OracleScheduler().run(quick_proc(), quanta=2)
        assert calls == {"dumps": 2, "loads": 2 * len(CANDIDATES)}


class TestOracleUpperBound:
    def test_bound_structure(self, quick_proc):
        report = oracle_upper_bound(quick_proc, quanta=2)
        assert set(report) == {"oracle_ipc", "fixed_icount_ipc", "headroom", "policy_usage"}
        assert report["oracle_ipc"] > 0
        assert report["fixed_icount_ipc"] > 0

    def test_oracle_not_much_worse_than_fixed(self, quick_proc):
        # Per-quantum max over {icount} is exactly fixed icount, so the
        # headroom with richer candidates cannot be very negative.
        report = oracle_upper_bound(quick_proc, quanta=3)
        assert report["headroom"] > -0.10

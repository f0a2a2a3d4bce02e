"""Recorded golden fingerprints: the bit-identical contract of the engine.

Every hot-path optimization in the simulator (wake-up lists, incremental
policy keys, shared trace streams, batched RNG) is required to leave the
simulated *trajectory* untouched.  This suite pins
``SMTProcessor.fingerprint()`` for every fetch policy and every ADTS
heuristic to values recorded on the unoptimized engine; any change to
these hashes means an optimization altered machine behaviour and must be
rejected (or the goldens consciously re-recorded with an explanation).

The fixed workload (4-app mix, seed 1) exercises icache misses, branch
mispredictions with wrong-path fetch, syscall drains, and ADTS
thread-control actions, so the hashes are sensitive to essentially every
pipeline mechanism.
"""

from __future__ import annotations

import pytest

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig

APPS = ["gzip", "crafty", "swim", "mcf"]
SEED = 1

#: Recorded on the pre-optimization engine; identical on the optimized one.
POLICY_GOLDENS = {
    "icount": "de205dd90c64a2e0f4e3247ba3b52d011da7915d1d044dfecce48834e12d5bb4",
    "brcount": "b669fd56cfb013dd1f80298b00c4e1a5db9b4c82c51c1cb110a78f47205ef13d",
    "ldcount": "3398dd89581bb465d2cd6fea4b533749aa1111718a2593da9e7151a58baf61b3",
    "memcount": "4f4d66298c9714ee73b111b5c5b8b44a12b66c5dde17f029a9e9a71bed7326f4",
    "l1misscount": "90f535bface37e4cfb67fa6323cdf091f4db446c2191f9578ed0b3055520c438",
    "l1imisscount": "72aba4dba23cef902051c4018c430f2190990a59e16d4f381971b4aef818d83a",
    "l1dmisscount": "1d9e1a94c13bccf26fdc9ec6177599be7dc53077eb3bd6f5605925ef6cd0e9b9",
    "accipc": "e0737859cdbc12077e5bae7a79eedf6c02d1163081d35422d86dfb729074718f",
    "stallcount": "36a07ae7e8310dfa449afd80c7742ea6363f620bd2bc2ca760c18fc0165aae7c",
    "rr": "71e258ff0f0fd36a369b32a8f5dc83b27c2e0235c491ca47ebdbb4aa43ac498a",
}

ADTS_GOLDENS = {
    "type1": "42902799b44562c0e51bf3d4b74d1bca21709eaea73e74932ba2982498018ab6",
    "type2": "7d8ce71df012a11386bb489c60903b201408dadff04e728c9277b25173109344",
    "type3": "393b4d5529b161df590316376b77c39f4d29513dc83cccfa5e4bad5b6de778f3",
    "type3g": "603b96ae5b0f96aa1b9737406d69699e8ad6a3a2256e4c73d9ddc44bf413470a",
    "type4": "277bd153c0ad40f8835ca02f5a3effe967f0a89cd3cb479b65628d5e21c0aaee",
}


def _policy_fingerprint(policy: str) -> str:
    proc = build_processor(mix=APPS, seed=SEED, policy=policy, quantum_cycles=512)
    proc.run_quanta(3)
    return proc.fingerprint()


def _adts_fingerprint(heuristic: str) -> str:
    hook = ADTSController(
        heuristic=heuristic, thresholds=ThresholdConfig(ipc_threshold=2.0)
    )
    proc = build_processor(
        mix=APPS, seed=SEED, policy="icount", hook=hook, quantum_cycles=512
    )
    proc.run_quanta(6)
    return proc.fingerprint()


@pytest.mark.parametrize("policy", sorted(POLICY_GOLDENS))
def test_policy_fingerprint_matches_golden(policy):
    assert _policy_fingerprint(policy) == POLICY_GOLDENS[policy]


@pytest.mark.parametrize("heuristic", sorted(ADTS_GOLDENS))
def test_adts_fingerprint_matches_golden(heuristic):
    assert _adts_fingerprint(heuristic) == ADTS_GOLDENS[heuristic]


def test_wrong_path_junk_is_deterministic():
    """The pre-drawn junk-RNG batches must make wrong-path fetch a pure
    function of the seed: two identical runs share every squashed
    instruction and land on the same fingerprint."""
    runs = []
    for _ in range(2):
        proc = build_processor(
            mix=APPS, seed=SEED, policy="brcount", quantum_cycles=512
        )
        proc.run_quanta(3)
        runs.append((proc.fingerprint(), proc.stats.squashed))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0, "workload must exercise wrong-path fetch"


def _golden_spec(mode="adts", heuristic="type3", policy="icount", threshold=2.0,
                 **cfg):
    """A run of the golden workload (``cfg`` overrides its config)."""
    from repro.harness.runner import BatchRunSpec, RunConfig

    config = RunConfig(**{"mix": tuple(APPS), "seed": SEED, "quantum_cycles": 512,
                          "warmup_quanta": 0, "policy": policy, **cfg})
    return BatchRunSpec(
        config=config, mode=mode, heuristic=heuristic,
        thresholds=ThresholdConfig(ipc_threshold=threshold) if mode == "adts" else None,
    )


def test_batch_engine_matches_goldens():
    """One lockstep batch over every golden workload — all five ADTS
    heuristics and a sample of fixed policies, plus off-golden (mix, seed)
    runs cross-checked against fresh sequential runs.  The batch engine
    must land every run on the exact sequential fingerprint."""
    from repro.harness.runner import run_batch, run_spec

    heuristics = sorted(ADTS_GOLDENS)
    policies = ["icount", "brcount", "accipc"]
    specs = (
        [_golden_spec(heuristic=h, quanta=6) for h in heuristics]
        + [_golden_spec(mode="fixed", policy=p, quanta=3) for p in policies]
        + [
            _golden_spec(mix="mix05", seed=3, quanta=4),
            _golden_spec(mode="fixed", mix="mix07", seed=2, quanta=4),
        ]
    )
    results = run_batch(specs)
    assert [r.config for r in results] == [s.config for s in specs]  # input order
    for h, r in zip(heuristics, results[:5]):
        assert r.fingerprint == ADTS_GOLDENS[h], h
    for p, r in zip(policies, results[5:8]):
        assert r.fingerprint == POLICY_GOLDENS[p], p
    for s, r in zip(specs[8:], results[8:]):
        sequential = run_spec(s)
        assert r == sequential, s  # whole results
        assert r.fingerprint == sequential.fingerprint, s


def test_batch_composition_and_order_do_not_change_fingerprints():
    """Property: a run's result, fingerprint included, is independent of
    its batchmates and of its position in the batch.  Sequential results
    are computed once; hypothesis then draws arbitrary multisets/orderings
    of the run pool and every batched result must match its sequential
    value."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from repro.harness.runner import run_batch, run_spec

    pool = [
        _golden_spec(heuristic=h, threshold=t, quanta=2)
        for h, t in [("type1", 2.0), ("type3", 2.0), ("type3", 99.0)]
    ] + [_golden_spec(mode="fixed", policy=p, quanta=2) for p in ("icount", "rr")]
    expected = {i: run_spec(s) for i, s in enumerate(pool)}

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                    min_size=1, max_size=6))
    def check(indices):
        results = run_batch([pool[i] for i in indices])
        for pos, r in enumerate(results):
            want = expected[indices[pos]]
            assert r == want, f"run {indices[pos]} diverged in batch {indices}"
            assert r.fingerprint == want.fingerprint, (
                f"run {indices[pos]} diverged in batch {indices}")

    check()

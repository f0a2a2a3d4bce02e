"""Request identity: the canonicalization the sharded front-door and the
result store key on. Two requests asking for the same seeded simulation
must digest identically no matter how they are spelled (permuted fault
kinds, int-vs-float numerics, inert mode fields, service-level noise);
two asking for different simulations must never collide. The identity is
the run's own key, so a grid-journal cell, a profile snapshot and the
request asking for the same run agree on it."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultPlan
from repro.harness.cli import main
from repro.harness.journal import RunJournal
from repro.harness.runner import BatchRunSpec, RunConfig, run_fields, run_key
from repro.harness.sweep import threshold_type_grid
from repro.service import SimRequest
from repro.service.identity import request_identity, shard_of


def req(**kw):
    defaults = dict(
        request_id="r1", client="alice", mix="mix05", mode="adts",
        policy="icount", heuristic="type3", threshold=2.0,
        quanta=10, warmup_quanta=2, seed=7,
    )
    defaults.update(kw)
    return SimRequest(**defaults)


class TestCanonicalization:
    def test_service_noise_never_splits_identity(self):
        a = req(request_id="r1", client="alice", priority=0,
                deadline_s=None, degradable=True)
        b = req(request_id="r2", client="bob", priority=3,
                deadline_s=5.0, degradable=False)
        assert request_identity(a) == request_identity(b)

    def test_permuted_and_duplicated_fault_kinds_collide(self):
        a = req(fault_kinds=("counters", "dt", "policy"))
        b = req(fault_kinds=("policy", "counters", "dt", "counters"))
        assert request_identity(a) == request_identity(b)

    def test_int_float_numeric_spellings_collide(self):
        assert request_identity(req(threshold=2)) == request_identity(
            req(threshold=2.0)
        )

    def test_fixed_mode_ignores_adts_fields(self):
        a = req(mode="fixed", policy="icount", heuristic="type1", threshold=1.0)
        b = req(mode="fixed", policy="icount", heuristic="type3", threshold=9.0)
        assert request_identity(a) == request_identity(b)

    def test_adts_mode_ignores_starting_policy(self):
        a = req(mode="adts", policy="icount")
        b = req(mode="adts", policy="rr")
        assert request_identity(a) == request_identity(b)

    def test_fault_rate_inert_without_fault_kinds(self):
        a = req(fault_kinds=(), fault_rate=0.0)
        b = req(fault_kinds=(), fault_rate=0.9)
        assert request_identity(a) == request_identity(b)
        # ...but meaningful as soon as any family is enabled.
        c = req(fault_kinds=("dt",), fault_rate=0.1)
        d = req(fault_kinds=("dt",), fault_rate=0.2)
        assert request_identity(c) != request_identity(d)

    def test_simulation_fields_do_split_identity(self):
        base = request_identity(req())
        assert request_identity(req(mix="mix01")) != base
        assert request_identity(req(seed=8)) != base
        assert request_identity(req(quanta=11)) != base
        assert request_identity(req(mode="fixed")) != base
        assert request_identity(req(heuristic="type1")) != base
        assert request_identity(req(fault_kinds=("dt",))) != base


class TestPinnedDigests:
    """Clean traffic is never re-keyed: these digests were computed by the
    request-only projection that the run projection replaced, so a
    store written before it stays warm and routes to the same shard."""

    @pytest.mark.parametrize("kw,digest", [
        ({}, "d10ad61792ace0dad3a79ae5890cea034a7570f466a423df7f8ba640ed12fd9e"),
        ({"threshold": 3},
         "2058d8baaf85632bfb5076f3c223f90a7ad4ab9a7b5694810e4d263c01ee4909"),
        ({"heuristic": "type4", "threshold": 1, "mix": "mix01",
          "num_threads": 8, "quantum_cycles": 2048},
         "c4fd67453703892860bbd0e879e3ebd38422c06bb26541c56a69c3e3818480f8"),
        ({"heuristic": "type3g", "threshold": 2.5, "seed": 0, "warmup_quanta": 0},
         "fe2a7819f59d405cd291c44c31c5ec3374f7a7577183b8fd3de22616e46a5fd7"),
        ({"mode": "fixed", "policy": "icount"},
         "83fd1cca6d0beca8969fe13fd7e961901e4cc70e0735701dc9b5a38a2e4836ba"),
        ({"mode": "fixed", "policy": "rr", "seed": 0, "quanta": 4, "num_threads": 2},
         "50779c3b29909c986b71722bbdab22914fe5a0c3efb8d80005d4a4c7c2ae8c01"),
    ])
    def test_clean_request_digest_is_pinned(self, kw, digest):
        assert request_identity(req(**kw)) == digest


class TestRunIdentity:
    """One projection keys every run: the grid journal, the store and the
    profile snapshot."""

    def test_disk_faults_never_enter_identity(self):
        clean = request_identity(req())
        assert request_identity(req(fault_kinds=("disk",), fault_rate=0.5)) == clean
        worker = request_identity(req(fault_kinds=("worker",)))
        assert worker != clean
        assert request_identity(req(fault_kinds=("worker", "disk"))) == worker

    def test_adts_key_ignores_starting_policy_and_number_spelling(self):
        def key(policy, threshold):
            return run_key(BatchRunSpec(
                config=RunConfig(mix="mix05", num_threads=4, policy=policy),
                thresholds=ThresholdConfig(ipc_threshold=threshold)))

        assert key("icount", 2) == key("rr", 2.0)

    def test_condition_constants_and_machine_key_only_when_changed(self):
        base = BatchRunSpec(config=RunConfig(mix="mix05", num_threads=4))
        fields = run_fields(base)
        assert run_fields(BatchRunSpec(
            config=base.config, thresholds=ThresholdConfig())) == fields
        tuned = run_fields(BatchRunSpec(
            config=base.config, thresholds=ThresholdConfig(l1_miss_rate=0.2)))
        assert tuned == {**fields, "l1_miss_rate": 0.2}
        from repro.smt.config import SMTConfig

        wide = run_fields(BatchRunSpec(
            config=RunConfig(mix="mix05", num_threads=4,
                             machine=SMTConfig(fetch_width=16))))
        assert wide == {**fields, "machine": {"fetch_width": 16}}

    def test_fault_plan_keys_its_changed_fields_and_seed(self):
        spec = BatchRunSpec(config=RunConfig(mix="mix05", num_threads=4),
                            fault_plan=FaultPlan(seed=5, dt_drop_rate=0.5))
        assert run_fields(spec)["faults"] == {"seed": 5, "dt_drop_rate": 0.5}

    @pytest.mark.parametrize(
        "field",
        ["l1_miss_rate", "lsq_full_rate", "mispredict_rate", "cond_branch_rate"],
    )
    def test_every_threshold_field_is_keyed(self, field):
        cfg = RunConfig(mix="mix05", num_threads=4)
        th = ThresholdConfig(ipc_threshold=2.0)
        other = ThresholdConfig(ipc_threshold=2.0, **{field: 0.0})
        assert (run_key(BatchRunSpec(config=cfg, thresholds=other))
                != run_key(BatchRunSpec(config=cfg, thresholds=th)))

    def test_scheduler_fault_plan_is_keyed(self):
        """A clean run and its faulted twin are different runs."""
        cfg = RunConfig(mix="mix05", num_threads=4, seed=11)
        plan = FaultPlan.from_kinds(["policy", "hangs"], rate=0.5, seed=11)
        assert (run_key(BatchRunSpec(config=cfg, fault_plan=plan))
                != run_key(BatchRunSpec(config=cfg)))

    def test_grid_journal_keys_are_request_identities(self, tmp_path):
        """Each journaled grid cell is filed under the identity of the
        service request asking for that same run."""
        base = RunConfig(num_threads=2, quanta=1, warmup_quanta=0,
                         quantum_cycles=128, seed=4)
        thresholds, heuristics, mixes = (1.0, 2), ("type1", "type3"), ["mix01", "mix05"]
        with RunJournal(tmp_path / "grid.jsonl") as journal:
            threshold_type_grid(base, mixes, thresholds=thresholds,
                                heuristics=heuristics, journal=journal)
        keys = [json.loads(line)["key"]
                for line in (tmp_path / "grid.jsonl").read_text().splitlines()]
        asked = [
            request_identity(SimRequest(
                request_id="cell", mix=mix, mode="adts", heuristic=h,
                threshold=m, quanta=1, warmup_quanta=0, quantum_cycles=128,
                num_threads=2, seed=4))
            for mix in mixes for m in thresholds for h in heuristics
        ]
        assert sorted(keys) == sorted(asked)
        assert len(set(keys)) == len(asked)

    @pytest.mark.parametrize("flag,values", [
        ("--threshold", ("2", "3")),
        ("--fault-seed", ("1", "2")),
    ])
    def test_profile_snapshot_config_digest_covers_the_run(
            self, tmp_path, capsys, flag, values):
        from repro.behavior import ProfileStore

        digests = []
        for value in values:
            store = tmp_path / f"profiles-{value}"
            assert main([
                "profile", "snapshot", "--store", str(store), "--label", "p",
                "--mix", "mix05", "--adts", "--faults", "counters",
                "--quanta", "1", "--quantum", "128", "--warmup", "0",
                flag, value,
            ]) == 0
            profile_id = capsys.readouterr().out.strip()
            digests.append(ProfileStore(store).load(profile_id)
                           .identity["config_digest"])
        assert digests[0] != digests[1]


class TestShardOf:
    def test_stable_and_in_range(self):
        d = request_identity(req())
        for n in (1, 2, 3, 7):
            s = shard_of(d, n)
            assert 0 <= s < n
            assert shard_of(d, n) == s

    def test_rejects_zero_shards(self):
        import pytest

        with pytest.raises(ValueError):
            shard_of("ab" * 32, 0)


# -- the hypothesis property --------------------------------------------------
_SIM = st.fixed_dictionaries(
    {
        "mix": st.sampled_from(["mix01", "mix05", "mix09"]),
        "mode": st.sampled_from(["adts", "fixed"]),
        "policy": st.sampled_from(["icount", "rr"]),
        "heuristic": st.sampled_from(["type1", "type3"]),
        "threshold": st.sampled_from([1, 1.0, 2, 2.5]),
        "quanta": st.integers(1, 20),
        "seed": st.integers(0, 5),
        "fault_kinds": st.lists(
            st.sampled_from(["counters", "dt", "policy"]), max_size=3
        ),
        "fault_rate": st.sampled_from([0.1, 0.2]),
    }
)
_NOISE = st.fixed_dictionaries(
    {
        "request_id": st.sampled_from(["a", "b", "c"]),
        "client": st.sampled_from(["x", "y"]),
        "priority": st.integers(0, 3),
        "deadline_s": st.sampled_from([None, 1.0, 60.0]),
        "degradable": st.booleans(),
    }
)


@settings(max_examples=150, deadline=None)
@given(sim=_SIM, noise_a=_NOISE, noise_b=_NOISE, shuffle=st.randoms())
def test_identity_is_canonical(sim, noise_a, noise_b, shuffle):
    """Permuted-but-equal requests collide; distinct simulations don't.

    The same simulation spelled two ways — different service noise,
    shuffled fault kinds, int-vs-float numerics — digests identically;
    perturbing any identity-bearing field changes the digest.
    """
    kinds = list(sim["fault_kinds"])
    shuffled = list(kinds)
    shuffle.shuffle(shuffled)
    a = req(**noise_a, **{**sim, "fault_kinds": tuple(kinds)})
    b = req(
        **noise_b,
        **{
            **sim,
            "fault_kinds": tuple(shuffled + shuffled),  # permuted + duplicated
            "threshold": float(sim["threshold"]),
            "quanta": int(sim["quanta"]),
        },
    )
    assert request_identity(a) == request_identity(b)
    assert request_identity(a) == run_key(a.run_spec())

    # Perturb one field the simulation actually depends on.
    c = req(**noise_a, **{**sim, "fault_kinds": tuple(kinds), "seed": sim["seed"] + 1})
    assert request_identity(c) != request_identity(a)
    d = req(**noise_a, **{**sim, "fault_kinds": tuple(kinds), "quanta": sim["quanta"] + 1})
    assert request_identity(d) != request_identity(a)

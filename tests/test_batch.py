"""Tests for the lockstep batch sweep engine (repro.smt.batch) and its
harness wiring: sweep equivalence with per-cell ``run_adts`` at any batch
size, per-mix default batches, the grid never touching the per-run
drivers, journal resume across batch sizes, fault isolation between
batchmates, fork-on-divergence, depth-first stepping (one live machine
per batch, one heartbeat per quantum step), the supervised ``grid_batch``
task kind, ``run_batch`` result parity, and the in-memory pickle round
trip every fork makes."""

import gc
import pickle
from contextlib import contextmanager

import pytest

import repro.harness.sweep as sweep_mod

from repro import build_processor
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.faults import FaultPlan
from repro.harness.errors import ConfigError
from repro.harness.executor import ExecutorConfig, SupervisedExecutor
from repro.harness.journal import RunJournal
from repro.harness.runner import BatchRunSpec, RunConfig, run_adts, run_batch, run_spec
from repro.harness.sweep import threshold_type_grid
from repro.smt.batch import BatchEngine
from repro.smt.pipeline import SMTProcessor

APPS = ("gzip", "crafty", "swim", "mcf")
SEED = 1


def tiny_base(**over):
    base = dict(quanta=3, warmup_quanta=1, quantum_cycles=256, seed=1,
                num_threads=4)
    base.update(over)
    return RunConfig(**base)


def spec(mode="adts", policy="icount", heuristic="type3", thresholds=None,
         fault_plan=None, **cfg):
    """One run on the 4-app mix: ``cfg`` overrides the :class:`RunConfig`."""
    config = RunConfig(**{"mix": APPS, "seed": SEED, "policy": policy, **cfg})
    return BatchRunSpec(config=config, mode=mode, heuristic=heuristic,
                        thresholds=thresholds, fault_plan=fault_plan)


def _grid_specs():
    """The 25-cell threshold x heuristic ADTS grid on mix05."""
    return [
        spec(mix="mix05", seed=0, quantum_cycles=1024, quanta=4,
             warmup_quanta=0, heuristic=h,
             thresholds=ThresholdConfig(ipc_threshold=m))
        for m in (1.0, 2.0, 3.0, 4.0, 5.0)
        for h in ("type1", "type2", "type3", "type3g", "type4")
    ]


def _live_machines() -> int:
    return sum(type(o) is SMTProcessor for o in gc.get_objects())


@contextmanager
def _machines_counted():
    """Collect, then disable automatic collection, so a machine left in a
    reference cycle stays countable; yields a function giving the number
    of machines alive beyond those alive on entry."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_machines()
        yield lambda: _live_machines() - before
    finally:
        if was_enabled:
            gc.enable()


class TestSweepBatchEquivalence:
    """Batching is a pure performance transform: any batch size gives the
    grid that one lone ``run_adts`` per cell gives."""

    MIXES = ["mix02", "mix05"]
    KW = dict(thresholds=(1.0, 3.0), heuristics=("type1", "type3"))

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_grid_matches_serial(self, batch, reference_grid):
        base = tiny_base()
        batched = threshold_type_grid(base, self.MIXES, batch=batch, **self.KW)
        ref = reference_grid(base, self.MIXES, **self.KW)
        assert batched == ref
        assert batched.best_cell() == ref.best_cell()

    def test_executor_owns_whole_batches(self, reference_grid):
        """Under an executor, each supervised worker simulates a batch of
        cells via the ``grid_batch`` task kind — same grid as the
        reference."""
        base = tiny_base()
        ex = SupervisedExecutor(ExecutorConfig(workers=1))
        batched = threshold_type_grid(base, self.MIXES, batch=2, executor=ex,
                                      **self.KW)
        assert ex.failures == []
        assert batched == reference_grid(base, self.MIXES, **self.KW)

    def test_default_batches_are_per_mix(self, monkeypatch):
        """``batch=None`` forms one batch per mix (cells share traces and
        machines only within a mix); ``batch=N`` chunks the same mix-major
        order."""
        calls = []
        real = sweep_mod.run_batch

        def recording(specs, progress=None):
            calls.append([s.config.mix for s in specs])
            return real(specs, progress=progress)

        monkeypatch.setattr(sweep_mod, "run_batch", recording)
        base = tiny_base(quanta=1)
        threshold_type_grid(base, self.MIXES, **self.KW)
        assert calls == [["mix02"] * 4, ["mix05"] * 4]
        calls.clear()
        threshold_type_grid(base, self.MIXES, batch=3, **self.KW)
        assert calls == [["mix02"] * 3, ["mix02", "mix05", "mix05"], ["mix05"] * 2]

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_is_rejected(self, batch):
        with pytest.raises(ConfigError, match="batch"):
            threshold_type_grid(tiny_base(), self.MIXES, batch=batch, **self.KW)


class TestOneEngine:
    def test_grids_never_call_the_per_run_drivers(self, tmp_path, monkeypatch,
                                                  reference_grid):
        """Every cell a grid simulates goes through ``run_batch`` (inline)
        or a ``grid_batch`` item (supervised): with ``run_adts`` and
        ``run_fixed`` raising, a default grid, an executor grid and a
        resumed journaled grid all still complete — and the resumed grid
        simulates only the cells missing from its journal."""
        import repro.harness.runner as runner

        base = tiny_base()
        mixes = ["mix02", "mix05"]
        kw = dict(thresholds=(1.0, 3.0), heuristics=("type1", "type3"))
        ref = reference_grid(base, mixes, **kw)

        def boom(*a, **k):
            raise AssertionError("a grid cell bypassed the batch engine")

        monkeypatch.setattr(runner, "run_adts", boom)
        monkeypatch.setattr(runner, "run_fixed", boom)
        assert threshold_type_grid(base, mixes, **kw) == ref
        ex = SupervisedExecutor(ExecutorConfig(workers=2))
        assert threshold_type_grid(base, mixes, executor=ex, **kw) == ref
        assert ex.failures == []

        path = tmp_path / "grid.jsonl"
        with RunJournal(path) as j:
            threshold_type_grid(base, mixes, journal=j, **kw)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # killed after 3 cells
        simulated = []
        real = sweep_mod.run_batch

        def counting(specs, progress=None):
            simulated.extend(specs)
            return real(specs, progress=progress)

        monkeypatch.setattr(sweep_mod, "run_batch", counting)
        with RunJournal(path) as j2:
            assert j2.load() == 3
            resumed = threshold_type_grid(base, mixes, journal=j2, **kw)
        assert len(simulated) == len(lines) - 3
        assert resumed == ref


class TestJournalAcrossBatchSizes:
    def test_resume_under_different_batch_size(self, tmp_path, monkeypatch):
        """A sweep journaled at --batch 4 resumes at --batch 1 (and one
        batch per mix) with zero recomputation: journal keys are per-cell,
        not per-batch."""
        base = tiny_base()
        path = tmp_path / "grid.jsonl"
        kw = dict(thresholds=(1.0, 3.0), heuristics=("type1", "type3"))
        with RunJournal(path) as j:
            first = threshold_type_grid(base, ["mix02"], batch=4, journal=j,
                                        **kw)

        def boom(*a, **k):
            raise AssertionError("journaled sweep must not re-simulate")

        monkeypatch.setattr(BatchEngine, "run", boom)
        with RunJournal(path) as j2:
            assert j2.load() == 4
            for batch in (1, 5, None):
                again = threshold_type_grid(base, ["mix02"], batch=batch,
                                            journal=j2, **kw)
                assert again == first


class TestFaultIsolation:
    def test_faulted_batchmate_leaves_clean_cell_untouched(self):
        """A heavily faulted cell and a clean cell share one batch: the
        clean cell's fingerprint must equal its solo sequential run, and
        the faulted cell must match its own sequential faulted run."""
        plan = FaultPlan.from_kinds(["counters", "dt", "policy"], rate=0.9,
                                    seed=7)
        common = dict(quantum_cycles=512, quanta=6, warmup_quanta=0,
                      mode="adts", heuristic="type3",
                      thresholds=ThresholdConfig(ipc_threshold=2.0))
        clean = spec(**common)
        faulted = spec(fault_plan=plan, **common)
        results = BatchEngine([faulted, clean]).run()
        clean_run, faulted_run = run_spec(clean), run_spec(faulted)
        assert results == [faulted_run, clean_run]  # whole results
        clean_fp = clean_run.fingerprint
        assert results[1].fingerprint == clean_fp
        assert results[0].fingerprint == faulted_run.fingerprint
        # The plan must actually have fired, or isolation was never tested
        # — and it must have perturbed the trajectory.
        assert results[0].scheduler.get("faults_injected", 0) > 0
        assert results[0].fingerprint != clean_fp

    def test_faulted_cells_run_solo(self):
        """Scheduler-faulted cells never share a machine (each owns its
        injector stream), but still share trace streams."""
        plan = FaultPlan.from_kinds(["counters"], rate=0.5, seed=3)
        common = dict(quantum_cycles=256, quanta=2, warmup_quanta=0,
                      mode="adts", heuristic="type3",
                      thresholds=ThresholdConfig(ipc_threshold=2.0))
        specs = [spec(fault_plan=plan, **common),
                 spec(fault_plan=plan, **common),
                 spec(**common)]
        engine = BatchEngine(specs)
        engine.run()
        assert engine.telemetry["groups_initial"] == 3
        assert engine.telemetry["trace_streams"] == len(APPS)


class TestForkOnDivergence:
    def test_divergent_trajectories_fork_and_stay_bit_identical(self):
        """A fixed-icount cell and an ADTS cell with an unreachable IPC
        threshold (so its very first boundary enqueues a DT) must fork the
        shared machine — and both sides must match their sequential runs."""
        specs = [
            spec(quantum_cycles=512, quanta=4, warmup_quanta=0, mode="fixed",
                 policy="icount"),
            spec(quantum_cycles=512, quanta=4, warmup_quanta=0, mode="adts",
                 heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=99.0)),
        ]
        engine = BatchEngine(specs)
        results = engine.run()
        assert engine.telemetry["groups_initial"] == 1
        assert engine.telemetry["forks"] >= 1
        assert engine.telemetry["groups_final"] == 2
        for s, r in zip(specs, results):
            sequential = run_spec(s)
            assert r == sequential, s  # whole results
            assert r.fingerprint == sequential.fingerprint, s

    def test_identical_cells_share_every_step(self):
        """Cells on identical trajectories never fork: N duplicates cost
        one machine's worth of quantum steps."""
        one = spec(quantum_cycles=256, quanta=3, warmup_quanta=0, mode="fixed",
                   policy="icount")
        engine = BatchEngine([one, one, one, one])
        results = engine.run()
        assert engine.telemetry["forks"] == 0
        assert engine.telemetry["quantum_steps"] == 3
        assert engine.telemetry["quantum_steps_sequential"] == 12
        assert len({r.fingerprint for r in results}) == 1

    def test_adts_grid_shares_trajectories(self):
        """The 5 x 5 threshold x heuristic ADTS grid on one mix follows
        fewer trajectories than it has cells, so the batch takes at most
        half the quantum steps a cell-by-cell sweep takes: the sharing the
        batch engine's sweep speed-up comes from."""
        specs = _grid_specs()
        engine = BatchEngine(specs)
        engine.run()
        telemetry = engine.telemetry
        assert telemetry["groups_final"] < len(specs)
        assert 2 * telemetry["quantum_steps"] <= telemetry["quantum_steps_sequential"]


class TestDepthFirst:
    """Groups run depth-first: one live machine per batch however many
    trajectories it forks into, each freed by refcount when it ends."""

    def test_one_live_machine_at_a_time(self):
        seen = []
        engine = BatchEngine(_grid_specs())
        with _machines_counted() as live:
            engine.run(progress=lambda _steps: seen.append(live()))
            assert live() == 0
        assert engine.telemetry["groups_final"] > 1  # it did fork
        assert max(seen) == 1

    def test_progress_fires_once_per_quantum_step(self):
        calls = []
        engine = BatchEngine(_grid_specs())
        engine.run(progress=calls.append)
        steps = engine.telemetry["quantum_steps"]
        assert calls == list(range(1, steps + 1))

    def test_forks_at_the_final_boundary(self):
        """Runs that diverge only at the last boundary still fork (their
        ops change the final machine) and return whole results; the
        parked partitions take no step, and every machine is freed."""
        common = dict(seed=3, quantum_cycles=512, quanta=1, warmup_quanta=0)
        specs = [
            spec(mode="fixed", policy="icount", **common),
            spec(heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=99.0), **common),
            spec(heuristic="type1", thresholds=ThresholdConfig(ipc_threshold=99.0), **common),
            spec(heuristic="type3", thresholds=ThresholdConfig(ipc_threshold=0.0), **common),
        ]
        engine = BatchEngine(specs)
        with _machines_counted() as live:
            results = engine.run()
            assert live() == 0
        assert engine.telemetry["forks"] == 2
        assert engine.telemetry["quantum_steps"] == 1
        assert results == [run_spec(s) for s in specs]

    def test_scheduler_faulted_solo_machine_is_freed(self):
        """A faulted cell's injector holds its machine (and gates its
        ``set_policy``); detaching the chain frees it like a grouped one."""
        plan = FaultPlan.from_kinds(["counters", "dt", "policy"], rate=0.5, seed=7)
        common = dict(quantum_cycles=256, quanta=2, warmup_quanta=0,
                      thresholds=ThresholdConfig(ipc_threshold=2.0))
        specs = [spec(fault_plan=plan, **common),
                 spec(mode="fixed", fault_plan=plan, **common)]
        engine = BatchEngine(specs)
        with _machines_counted() as live:
            results = engine.run()
            assert live() == 0
        assert results == [run_spec(s) for s in specs]


class TestRunBatchParity:
    def test_run_batch_matches_run_adts(self):
        """Batched and sequential runs return equal whole results, and a
        disk-only fault plan (which shares its clean twin's run key) returns
        its clean twin's result on both paths."""
        base = tiny_base()
        specs = [
            BatchRunSpec(config=base, heuristic=h,
                         thresholds=ThresholdConfig(ipc_threshold=m), fault_plan=plan)
            for m, h, plan in [(1.0, "type1", None), (2.0, "type3", None),
                               (99.0, "type4", None),
                               (2.0, "type3", FaultPlan(disk_torn_write_rate=0.5))]
        ]
        batch_results = run_batch(specs)
        assert batch_results[3] == batch_results[1]
        for s, got in zip(specs, batch_results):
            want = run_adts(s.config, heuristic=s.heuristic,
                            thresholds=s.thresholds, fault_plan=s.fault_plan)
            assert got == want  # whole results, fingerprint included
            assert got.ipc == want.ipc
            assert got.committed == want.committed
            assert got.cycles == want.cycles
            assert got.quantum_ipcs == want.quantum_ipcs
            assert got.scheduler["switches"] == want.scheduler["switches"]
            assert (got.scheduler["benign_probability"]
                    == want.scheduler["benign_probability"])


class TestMachinePickle:
    """A fork is an in-memory pickle round trip of the whole machine (the
    batch engine's partitions, the oracle's trials): the copy must be the
    machine, and small enough to make per boundary."""

    @staticmethod
    def _adts_machine():
        ctrl = ADTSController(heuristic="type3",
                              thresholds=ThresholdConfig(ipc_threshold=2.0))
        return build_processor(mix="mix05", seed=3, hook=ctrl, quantum_cycles=512)

    @pytest.mark.parametrize("every_row_built", [False, True])
    def test_copy_at_a_boundary_advances_like_the_original(self, every_row_built):
        """Caches build a set's rows at its first fill; a machine holding
        every row (the layout written before that) copies just as well."""
        clean = self._adts_machine()
        clean.run_quanta(5)
        proc = self._adts_machine()
        proc.run_quanta(3)
        if every_row_built:
            h = proc.hierarchy
            for cache in (h.l1i, h.l1d, h.l2):
                ways = cache.config.ways
                for idx, row in enumerate(cache._tags):
                    if row is None:
                        cache._tags[idx] = [-1] * ways
                        cache._lru[idx] = [0] * ways
        twin = pickle.loads(pickle.dumps(proc, protocol=pickle.HIGHEST_PROTOCOL))
        assert twin.fingerprint() == proc.fingerprint()
        proc.run_quanta(2)
        twin.run_quanta(2)
        assert twin.fingerprint() == proc.fingerprint() == clean.fingerprint()

    def test_fresh_processor_pickle_footprint(self):
        """A fresh 8-thread machine pickled to ~1.3 MB when it built every
        cache row and 8,192 pooled draws per thread up front; it must stay
        small."""
        proc = build_processor(mix="mix05", num_threads=8)
        assert len(pickle.dumps(proc, protocol=pickle.HIGHEST_PROTOCOL)) < 512 * 1024

    def test_processor_with_queued_detector_work_pickles(self):
        """ADTS queues detector tasks whose callbacks must stay picklable
        (a lambda there would make every fork at that boundary fail)."""
        proc = self._adts_machine()
        proc.run_quanta(2)
        assert proc.hook.detector.busy  # work is queued at this boundary
        copy = pickle.loads(pickle.dumps(proc))
        assert copy.now == proc.now
        proc.run_quanta(1)
        copy.run_quanta(1)
        assert copy.fingerprint() == proc.fingerprint()

    def test_stepped_run_equals_bulk_run(self):
        """A run stepped quantum by quantum (whenever ``progress`` is
        given: the worker heartbeat) returns the bulk run's result."""
        cfg = RunConfig(mix="mix05", num_threads=8, quantum_cycles=512,
                        quanta=5, warmup_quanta=2, seed=7)
        th = ThresholdConfig(ipc_threshold=2.0)
        beats = []
        assert run_adts(cfg, thresholds=th, progress=beats.append) == run_adts(
            cfg, thresholds=th)
        assert beats == list(range(1, cfg.total_quanta() + 1))

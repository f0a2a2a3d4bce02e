"""Shared fixtures: small machines and quick processor builders.

Pipeline tests run on reduced configurations (2–4 threads, small caches,
short quanta) so the suite stays fast while still exercising every
mechanism; full-size behaviour is covered by the benchmarks.
"""

from __future__ import annotations

import pytest

from repro import build_processor
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.cache import CacheConfig
from repro.smt.config import SMTConfig


@pytest.fixture
def small_hierarchy() -> HierarchyConfig:
    """A tiny hierarchy whose capacity effects show up within a few
    thousand accesses."""
    return HierarchyConfig(
        l1i=CacheConfig(4 * 1024, 64, 2, "l1i"),
        l1d=CacheConfig(4 * 1024, 64, 2, "l1d"),
        l2=CacheConfig(64 * 1024, 64, 4, "l2"),
        l2_latency=8,
        mem_latency=40,
        mshr_entries=8,
    )


@pytest.fixture
def small_config(small_hierarchy) -> SMTConfig:
    return SMTConfig(
        num_threads=4,
        int_iq_entries=24,
        fp_iq_entries=24,
        lsq_entries=16,
        rob_entries_per_thread=32,
        fetch_buffer_entries=16,
        hierarchy=small_hierarchy,
    )


@pytest.fixture
def quick_proc(small_config):
    """4-thread processor on a small mixed workload, 512-cycle quanta."""

    def build(mix=("gzip", "crafty", "swim", "mcf"), policy="icount", hook=None, seed=1):
        return build_processor(
            mix=list(mix),
            config=small_config,
            policy=policy,
            hook=hook,
            seed=seed,
            quantum_cycles=512,
        )

    return build


@pytest.fixture
def stage_proc(small_config):
    """Build a processor whose threads fetch nothing, so a test can place
    instructions in a thread's front end (:func:`feed`) and step the live
    stages into the stall, wake-up or drop it is about. Keyword arguments
    override fields of ``small_config`` (``threads`` sets the context
    count)."""
    from dataclasses import replace

    from repro.smt.pipeline import SMTProcessor
    from repro.workloads.tracegen import make_generators

    def build(threads=1, **machine):
        cfg = replace(small_config, num_threads=threads, **machine)
        proc = SMTProcessor(cfg, make_generators(["gzip"] * threads))
        for ctx in proc.contexts:
            ctx.fetchable = False
        return proc

    return build


def take(trace, n):
    """The next ``n`` instructions of ``trace`` (a generator or a shared
    cursor), as the fetch stage reads them."""
    return [trace.next_instruction() for _ in range(n)]


def feed(proc, tid, *instrs):
    """Put ``instrs`` in thread ``tid``'s front end, ready to dispatch this
    cycle: what the fetch stage does, minus the I-cache and predictor.
    Returns them."""
    for instr in instrs:
        instr.tid = tid
        proc.front_q[tid].append((instr, proc.now))
    proc.counters[tid].front_end += len(instrs)
    proc._front_total += len(instrs)
    return instrs


def step_until(proc, done, limit=500):
    """Step ``proc`` until ``done()`` holds; fails after ``limit`` cycles."""
    for _ in range(limit):
        if done():
            return
        proc.step()
    raise AssertionError(f"condition not reached in {limit} cycles")


@pytest.fixture
def reference_grid():
    """Build a grid's expected :class:`SweepResult` from one lone
    ``run_adts`` call per cell — the reference implementation every sweep
    path (inline, supervised, resumed) must match bit for bit."""
    from dataclasses import replace

    from repro.core.thresholds import ThresholdConfig
    from repro.harness.runner import run_adts
    from repro.harness.sweep import SweepResult

    def build(base, mixes, thresholds, heuristics, fault_plan=None):
        ref = SweepResult(list(thresholds), list(heuristics), list(mixes))
        for m in thresholds:
            for h in heuristics:
                ipcs, switches, benign = [], 0, 0.0
                for mix in mixes:
                    r = run_adts(replace(base, mix=mix), heuristic=h,
                                 thresholds=ThresholdConfig(ipc_threshold=m),
                                 fault_plan=fault_plan)
                    n = r.scheduler.get("switches", 0)
                    ipcs.append(r.ipc)
                    ref.per_mix_ipc[(m, h, mix)] = r.ipc
                    ref.per_mix_switches[(m, h, mix)] = n
                    switches += n
                    benign += r.scheduler.get("benign_probability", 0.0) * n
                ref.ipc[(m, h)] = sum(ipcs) / len(ipcs)
                ref.switches[(m, h)] = switches
                ref.benign[(m, h)] = benign / switches if switches else 0.0
        return ref

    return build


def pump_until_idle(service, budget_s):
    """Pump ``service`` (a shard or the front door) until it owes nothing
    and return the answers it has not handed out yet: the one traffic
    loop, fed an empty stream and paced by the wall clock. Fails the test
    if work is still pending after ``budget_s`` seconds."""
    from repro.service.loadgen import replay_traffic

    responses = replay_traffic(service, [], None, max_s=budget_s)
    assert service.pending == 0, (
        f"not idle within {budget_s:g}s (pending={service.pending})")
    return responses


def stored_integrity(store, digest: str):
    """The integrity status written in ``store``'s entry for ``digest``."""
    from repro.service.resultstore import RESULT_FORMAT, RESULT_VERSION
    from repro.storage.artifact import load_json_artifact

    _, doc = load_json_artifact(store.path_for(digest),
                                expect=(RESULT_FORMAT, RESULT_VERSION))
    return doc["integrity"]


def assert_counter_consistency(proc) -> None:
    """The live occupancy counters must match the physical structures
    (the invariant checker's gauge rules)."""
    from repro.smt.invariants import gauge_violation

    violation = gauge_violation(proc)
    assert violation is None, str(violation)

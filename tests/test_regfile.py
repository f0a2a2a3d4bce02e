"""Tests for the shared rename-register pool."""

import pytest

from conftest import assert_counter_consistency, feed, step_until
from repro.smt.instruction import (
    BRANCH, FADD, IALU, KIND_NAMES, LOAD, STORE, SYSCALL, Instruction,
)
from repro.smt.regfile import RenameRegisterPool, needs_register


class TestNeedsRegister:
    def test_dest_writers(self):
        for kind in (IALU, FADD, LOAD):
            assert needs_register(kind)

    def test_no_dest(self):
        for kind in (BRANCH, STORE, SYSCALL):
            assert not needs_register(kind)

    def test_hot_path_form_agrees(self):
        """Dispatch and commit test ``kind < STORE`` inline."""
        for kind in KIND_NAMES:
            assert needs_register(kind) == (kind < STORE)


class TestRenameRegisterPool:
    """The dispatch stage claims registers inline; commit, squash, swaps
    and dispatch stalls give them back through ``release``."""

    def make(self, cap=4, threads=2):
        pool = RenameRegisterPool(cap)
        pool.reset_threads(threads)
        return pool

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RenameRegisterPool(0)

    def test_allocate_release_roundtrip(self, stage_proc):
        proc = stage_proc()
        feed(proc, 0, Instruction(0, 0, IALU, 0))
        proc.step()
        assert proc.regs.in_use == 1 and proc.regs.occupancy_of(0) == 1
        step_until(proc, lambda: proc.stats.committed == 1)
        assert proc.regs.in_use == 0 and proc.regs.occupancy_of(0) == 0

    def test_exhaustion_counts_failures(self, stage_proc):
        """An exhausted pool stalls dispatch and counts the failed claim;
        the stalled instruction dispatches once commit frees a register."""
        proc = stage_proc(rename_registers=2)
        feed(proc, 0, *(Instruction(0, s, IALU, 0) for s in range(3)))
        proc.step()
        tc = proc.counters[0]
        assert proc.regs.in_use == 2 and len(proc.iq_int) == 2
        assert proc.regs.alloc_failures == 1
        assert tc.q_reg_full == 1 and tc.q_stall_cycles == 1
        assert len(proc.front_q[0]) == 1
        assert_counter_consistency(proc)
        step_until(proc, lambda: proc.stats.committed == 3)
        assert proc.regs.in_use == 0

    def test_release_underflow_raises(self):
        pool = self.make()
        with pytest.raises(RuntimeError):
            pool.release(0)

    def test_release_all(self, stage_proc):
        """A context switch gives back every register the outgoing thread
        holds, and only those."""
        from repro.workloads.tracegen import make_generators

        proc = stage_proc(threads=2)
        feed(proc, 0, Instruction(0, 0, IALU, 0))
        feed(proc, 1, *(Instruction(1, s, IALU, 0) for s in range(3)))
        proc.step()
        assert proc.regs.occupancy_of(1) == 3
        proc.swap_thread(1, make_generators(["gzip"], seed=5)[0])
        assert proc.regs.occupancy_of(1) == 0
        assert proc.regs.in_use == 1
        assert_counter_consistency(proc)

    def test_attribution_per_thread(self, stage_proc):
        proc = stage_proc(threads=3)
        feed(proc, 0, Instruction(0, 0, IALU, 0))
        feed(proc, 2, Instruction(2, 0, LOAD, 0, addr=0x40),
             Instruction(2, 1, FADD, 0), Instruction(2, 2, STORE, 0, addr=0x80))
        proc.step()
        assert proc.regs.occupancy_of(0) == 1
        assert proc.regs.occupancy_of(1) == 0
        assert proc.regs.occupancy_of(2) == 2
        assert proc.regs.in_use == 3
        assert_counter_consistency(proc)


class TestPipelineIntegration:
    def test_tiny_pool_throttles_but_progresses(self, small_config):
        from dataclasses import replace

        from repro import build_processor

        cfg = replace(small_config, rename_registers=12)
        proc = build_processor(mix=["gzip", "mcf", "crafty", "swim"],
                               config=cfg, seed=1, quantum_cycles=512)
        proc.run(4000)
        assert proc.regs.alloc_failures > 0
        assert proc.stats.committed > 100

    def test_generous_pool_never_fails(self, quick_proc):
        proc = quick_proc()
        proc.run(4000)
        # The small_config default pool (200) covers 4 threads easily.
        assert proc.regs.alloc_failures == 0

    def test_registers_freed_at_swap(self, quick_proc):
        import numpy as np

        from repro.workloads.profiles import get_profile
        from repro.workloads.tracegen import TraceGenerator

        proc = quick_proc()
        proc.run(1500)
        trace = TraceGenerator(get_profile("vortex"), 9, np.random.default_rng(5))
        proc.swap_thread(1, trace, switch_penalty=20)
        assert proc.regs.occupancy_of(1) == 0

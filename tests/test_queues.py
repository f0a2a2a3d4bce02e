"""Tests for the instruction queues and LSQ.

The dispatch stage claims IQ and LSQ entries inline, so the claim rules
are tested by stepping a processor through dispatch (``stage_proc``)."""

import pytest

from conftest import assert_counter_consistency, feed, step_until
from repro.smt.instruction import BRANCH, IALU, LOAD, STORE, Instruction
from repro.smt.queues import InstructionQueue, LoadStoreQueue


def instr(tid=0, seq=0, kind=IALU, addr=0):
    return Instruction(tid, seq, kind, 0, addr=addr)


class TestInstructionQueue:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            InstructionQueue(0, "x")

    def test_insert_and_len(self, stage_proc):
        proc = stage_proc()
        feed(proc, 0, instr())
        proc.step()
        assert len(proc.iq_int) == 1 and len(proc.iq_fp) == 0
        assert proc.counters[0].iq_int == 1
        assert_counter_consistency(proc)

    def test_overflow_stalls_dispatch(self, stage_proc):
        """A full IQ stalls dispatch: the LOAD's register and LSQ claims are
        given back, the stall is counted, and the LOAD dispatches once issue
        frees the slot."""
        proc = stage_proc(int_iq_entries=1)
        _, load = feed(proc, 0, instr(seq=0), instr(seq=1, kind=LOAD, addr=0x40))
        proc.step()
        tc = proc.counters[0]
        assert len(proc.iq_int) == 1
        assert tc.q_iq_full == 1 and tc.q_stall_cycles == 1
        assert proc.regs.in_use == 1 and len(proc.lsq) == 0
        assert proc.front_q[0][0][0] is load
        assert_counter_consistency(proc)
        proc.step()  # the IALU issues, so the LOAD fits
        assert list(proc.iq_int) == [load] and len(proc.lsq) == 1
        assert tc.q_iq_full == 1
        assert_counter_consistency(proc)

    def test_compact_drops_issued_and_squashed(self):
        q = InstructionQueue(4, "int")
        a, b, c = instr(seq=1), instr(seq=2), instr(seq=3)
        b.issued = True
        c.squashed = True
        q.set_entries([a, b, c])
        q.compact()
        assert list(q) == [a]

    def test_occupancy_of_counts_live_entries_per_thread(self):
        q = InstructionQueue(8, "int")
        dead = instr(tid=0, seq=3)
        dead.squashed = True
        q.set_entries([instr(tid=0, seq=1), instr(tid=1, seq=2), dead])
        assert q.occupancy_of(0) == 1
        assert q.occupancy_of(1) == 1

    def test_set_entries_replaces(self):
        q = InstructionQueue(4, "int")
        q.set_entries([instr()])
        q.set_entries([])
        assert len(q) == 0

    def test_iteration_in_dispatch_order(self, stage_proc):
        proc = stage_proc()
        items = feed(proc, 0, *(instr(seq=i) for i in range(3)))
        proc.step()
        assert list(proc.iq_int) == list(items)


class TestLoadStoreQueue:
    def make(self, cap=4, threads=2):
        lsq = LoadStoreQueue(cap)
        lsq.reset_threads(threads)
        return lsq

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LoadStoreQueue(0)

    def test_allocate_release(self, stage_proc):
        """Dispatch claims an entry for each load and store (and for
        nothing else); commit gives it back."""
        proc = stage_proc()
        feed(proc, 0, instr(seq=0, kind=LOAD, addr=0x40), instr(seq=1),
             instr(seq=2, kind=STORE, addr=0x80), instr(seq=3, kind=BRANCH))
        proc.step()
        assert len(proc.lsq) == 2 and proc.lsq.occupancy_of(0) == 2
        assert proc.counters[0].lsq == 2
        step_until(proc, lambda: proc.stats.committed == 4)
        assert len(proc.lsq) == 0 and proc.counters[0].lsq == 0
        assert_counter_consistency(proc)

    def test_full_refuses_and_counts(self, stage_proc):
        """A full LSQ stalls dispatch, counts a full event (COND_MEM's
        input) and gives back the stalled load's rename register."""
        proc = stage_proc(lsq_entries=1)
        feed(proc, 0, instr(seq=0, kind=LOAD, addr=0x40),
             instr(seq=1, kind=LOAD, addr=0x80))
        proc.step()
        tc = proc.counters[0]
        assert len(proc.lsq) == 1 and proc.lsq.full_events == 1
        assert tc.q_lsq_full == 1 and tc.q_stall_cycles == 1
        assert proc.regs.in_use == 1
        assert_counter_consistency(proc)
        step_until(proc, lambda: proc.stats.committed == 2)
        assert len(proc.lsq) == 0
        assert_counter_consistency(proc)

    def test_release_underflow_raises(self):
        lsq = self.make()
        with pytest.raises(RuntimeError):
            lsq.release(0)

    def test_release_all(self, quick_proc):
        """A context switch gives back every LSQ entry the outgoing thread
        held, and only those."""
        from repro.workloads.tracegen import make_generators

        proc = quick_proc(mix=("mcf", "swim", "mcf", "swim"))
        step_until(proc, lambda: 0 < proc.lsq.occupancy_of(1) < len(proc.lsq))
        others = len(proc.lsq) - proc.lsq.occupancy_of(1)
        proc.swap_thread(1, make_generators(["gzip"], seed=5)[0])
        assert proc.lsq.occupancy_of(1) == 0 and proc.counters[1].lsq == 0
        assert len(proc.lsq) == others
        assert_counter_consistency(proc)

    def test_release_all_zero_noop(self, stage_proc):
        """Switching out a thread that holds no LSQ entry leaves the other
        threads' entries alone."""
        from repro.workloads.tracegen import make_generators

        proc = stage_proc(threads=2)
        feed(proc, 0, instr(seq=0, kind=LOAD, addr=0x40))
        feed(proc, 1, instr(seq=0))
        proc.step()
        proc.swap_thread(1, make_generators(["gzip"], seed=5)[0])
        assert len(proc.lsq) == 1 and proc.lsq.occupancy_of(0) == 1
        assert_counter_consistency(proc)

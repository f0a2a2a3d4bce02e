"""Tests for the functional-unit pool and completion heap."""

from repro.smt.execute import CompletionHeap, FunctionalUnitPool
from repro.smt.instruction import BRANCH, FADD, FDIV, IALU, LOAD, STORE, Instruction


class TestFunctionalUnitPool:
    def test_int_slots_limited(self):
        pool = FunctionalUnitPool(int_units=2, mem_ports=1, fp_units=1)
        pool.new_cycle()
        assert pool.try_claim(IALU)
        assert pool.try_claim(BRANCH)
        assert not pool.try_claim(IALU)

    def test_mem_ports_sub_limit_int(self):
        pool = FunctionalUnitPool(int_units=4, mem_ports=1, fp_units=1)
        pool.new_cycle()
        assert pool.try_claim(LOAD)
        assert not pool.try_claim(STORE)  # mem port exhausted
        assert pool.try_claim(IALU)  # int slots remain

    def test_mem_consumes_int_slot(self):
        pool = FunctionalUnitPool(int_units=1, mem_ports=1, fp_units=1)
        pool.new_cycle()
        assert pool.try_claim(LOAD)
        assert not pool.try_claim(IALU)

    def test_fp_independent_of_int(self):
        pool = FunctionalUnitPool(int_units=1, mem_ports=1, fp_units=2)
        pool.new_cycle()
        assert pool.try_claim(IALU)
        assert pool.try_claim(FADD)
        assert pool.try_claim(FDIV)
        assert not pool.try_claim(FADD)

    def test_new_cycle_resets(self):
        pool = FunctionalUnitPool(1, 1, 1)
        pool.new_cycle()
        pool.try_claim(IALU)
        pool.new_cycle()
        assert pool.try_claim(IALU)


class TestCompletionHeap:
    def instr(self, seq):
        return Instruction(0, seq, IALU, 0)

    def test_pop_ready_respects_time(self):
        h = CompletionHeap()
        a, b = self.instr(1), self.instr(2)
        h.schedule(a, 10)
        h.schedule(b, 5)
        assert h.pop_ready(4) == []
        assert h.pop_ready(5) == [b]
        assert h.pop_ready(10) == [a]
        assert len(h) == 0

    def test_sets_complete_cycle(self):
        h = CompletionHeap()
        a = self.instr(1)
        h.schedule(a, 33)
        assert a.complete_cycle == 33

    def test_fifo_within_same_cycle(self):
        h = CompletionHeap()
        items = [self.instr(i) for i in range(5)]
        for i in items:
            h.schedule(i, 7)
        assert h.pop_ready(7) == items

"""Tests for the per-thread hardware context."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feed, step_until
from repro.smt.context import ThreadContext
from repro.smt.instruction import IALU, LOAD, Instruction


class FakeTrace:
    def __init__(self):
        self.n = 0

    def next_instruction(self):
        i = Instruction(0, self.n, IALU, self.n * 4)
        self.n += 1
        return i


def ctx():
    return ThreadContext(0, FakeTrace())


class TestTraceAccess:
    def test_sequential_pull(self):
        c = ctx()
        assert c.next_instruction().seq == 0
        assert c.next_instruction().seq == 1

    def test_pushback_returns_same_instruction(self):
        c = ctx()
        first = c.next_instruction()
        c.push_back(first)
        assert c.next_instruction() is first

    def test_double_pushback_asserts(self):
        c = ctx()
        a = c.next_instruction()
        b = c.next_instruction()
        c.push_back(a)
        with pytest.raises(AssertionError):
            c.push_back(b)


class TestDependenceTracking:
    def test_in_order_completion_advances_pointer(self):
        c = ctx()
        for s in range(5):
            c.mark_completed(s)
        assert c.done_upto == 4
        assert not c.done_set

    def test_out_of_order_completion(self):
        c = ctx()
        c.mark_completed(2)
        assert c.done_upto == -1
        assert c.done_set == {2}
        c.mark_completed(0)
        c.mark_completed(1)
        assert c.done_upto == 2
        assert not c.done_set  # compacted

    def test_negative_seq_ignored(self):
        c = ctx()
        c.mark_completed(-1)
        assert c.done_upto == -1

    def test_is_ready_with_deps(self, stage_proc):
        """A consumer dispatched before its producers complete waits in the
        IQ; the first producer's completion leaves it waiting, the second's
        wakes it, and it issues in that same cycle."""
        proc = stage_proc()
        _, miss, consumer = feed(
            proc, 0, Instruction(0, 0, IALU, 0),
            Instruction(0, 1, LOAD, 0, addr=0x40),  # cold miss: ~50 cycles
            Instruction(0, 2, IALU, 0, dep1=0, dep2=1),
        )
        proc.step()
        assert not consumer.iq_ready
        step_until(proc, lambda: proc.contexts[0].done_upto == 0)
        assert not miss.completed
        assert not consumer.iq_ready and not consumer.issued
        step_until(proc, lambda: miss.completed)
        assert consumer.iq_ready and consumer.issued

    def test_is_ready_no_deps(self, stage_proc):
        proc = stage_proc()
        (i,) = feed(proc, 0, Instruction(0, 0, IALU, 0))
        proc.step()
        assert i.iq_ready and not i.issued
        proc.step()
        assert i.issued


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(12))))
def test_completion_pointer_invariant_any_order(order):
    """After completing seqs in any order, done_upto + done_set together
    describe exactly the completed set."""
    c = ctx()
    completed = set()
    for s in order:
        c.mark_completed(s)
        completed.add(s)
        for q in range(12):
            assert (q <= c.done_upto or q in c.done_set) == (q in completed)
        # done_set never contains anything at or below the pointer.
        assert all(s2 > c.done_upto for s2 in c.done_set)
    assert c.done_upto == 11
    assert not c.done_set


class TestFetchGating:
    def test_default_fetchable(self):
        assert ctx().can_fetch(0)

    def test_block_until(self):
        c = ctx()
        c.block_fetch_until(10)
        assert not c.can_fetch(9)
        assert c.can_fetch(10)

    def test_block_never_shrinks(self):
        c = ctx()
        c.block_fetch_until(10)
        c.block_fetch_until(5)
        assert c.fetch_ready_cycle == 10

    def test_control_flags_gate_fetch(self):
        c = ctx()
        c.fetchable = False
        assert not c.can_fetch(0)
        c.fetchable = True
        c.suspended = True
        assert not c.can_fetch(0)
        c.suspended = False
        c.syscall_waiting = True
        assert not c.can_fetch(0)

    def test_fetch_stage_skips_gated_threads(self, quick_proc):
        """The fetch stage offers the policy only threads that can_fetch."""
        proc = quick_proc()
        proc.run(200)
        proc.contexts[0].fetchable = False
        proc.contexts[1].suspended = True
        proc.contexts[2].block_fetch_until(proc.now + 300)
        fetched = [tc.total_fetched for tc in proc.counters]
        proc.run(100)
        after = [tc.total_fetched for tc in proc.counters]
        assert after[:3] == fetched[:3]
        assert after[3] > fetched[3]

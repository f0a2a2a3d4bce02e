"""Tests for the thread control flags (DT <-> TSU/job-scheduler interface)."""

from repro.core.flags import ThreadControlFlags


class TestThreadControlFlags:
    def test_fetchable_roundtrip(self, quick_proc):
        proc = quick_proc()
        flags = ThreadControlFlags(proc)
        assert proc.contexts[0].fetchable
        flags.set_fetchable(0, False)
        assert not proc.contexts[0].fetchable
        flags.set_fetchable(0, True)
        assert proc.contexts[0].fetchable

    def test_suspension_marks(self, quick_proc):
        proc = quick_proc()
        flags = ThreadControlFlags(proc)
        flags.mark_for_suspension(2)
        flags.mark_for_suspension(1)
        assert flags.marked_for_suspension() == [1, 2]
        flags.clear_suspension_mark(2)
        assert flags.marked_for_suspension() == [1]

    def test_suspend_now_acts_and_clears_mark(self, quick_proc):
        proc = quick_proc()
        flags = ThreadControlFlags(proc)
        flags.mark_for_suspension(3)
        flags.suspend_now(3)
        assert proc.contexts[3].suspended
        assert flags.marked_for_suspension() == []

    def test_resume(self, quick_proc):
        proc = quick_proc()
        flags = ThreadControlFlags(proc)
        flags.suspend_now(0)
        flags.resume(0)
        assert not proc.contexts[0].suspended

    def test_snapshot_shape(self, quick_proc):
        """A mark is bookkeeping only: the marked thread still fetches and
        runs until the job scheduler suspends it."""
        proc = quick_proc()
        flags = ThreadControlFlags(proc)
        flags.mark_for_suspension(1)
        assert flags.marked_for_suspension() == [1]
        assert all(ctx.fetchable and not ctx.suspended for ctx in proc.contexts)

    def test_marking_is_idempotent(self, quick_proc):
        proc = quick_proc()
        flags = ThreadControlFlags(proc)
        flags.mark_for_suspension(1)
        flags.mark_for_suspension(1)
        assert flags.marked_for_suspension() == [1]

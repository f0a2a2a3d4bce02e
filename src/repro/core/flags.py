"""Thread control flags.

"A thread will have its own set of flags. A flag may tell whether a thread
can be fetched in the next cycle while another flag may tell whether it
should be context-switched in the next opportunity." (§4)

The flags object is the write-side interface the detector thread uses; the
pipeline's fetch gate reads the same state through
:class:`~repro.smt.context.ThreadContext`.
"""

from __future__ import annotations

from typing import List


class ThreadControlFlags:
    """Per-thread control bits shared between the DT and the TSU."""

    def __init__(self, processor) -> None:
        self._processor = processor

    # -- fetch-inhibit flag ---------------------------------------------------
    def set_fetchable(self, tid: int, fetchable: bool) -> None:
        """Allow or inhibit instruction fetch for context ``tid``."""
        self._processor.contexts[tid].fetchable = fetchable

    # -- context-switch flag ---------------------------------------------------
    def mark_for_suspension(self, tid: int) -> None:
        """Flag ``tid`` as clogging: the job scheduler should swap it out.

        The flag by itself changes nothing (the OS acts on it); the paper's
        point is that the job scheduler finds the victim pre-identified.
        """
        self._processor.contexts[tid].suspended = False  # not yet suspended
        self._marks().add(tid)

    def clear_suspension_mark(self, tid: int) -> None:
        """Withdraw a clogging mark."""
        self._marks().discard(tid)

    def marked_for_suspension(self) -> List[int]:
        """Threads currently flagged for the job scheduler (sorted)."""
        return sorted(self._marks())

    def suspend_now(self, tid: int) -> None:
        """Job-scheduler action: actually stop the thread (examples use
        this to demonstrate the §3 context-switch path)."""
        self._processor.contexts[tid].suspended = True
        self._marks().discard(tid)

    def resume(self, tid: int) -> None:
        """Job-scheduler action: let a suspended thread run again."""
        self._processor.contexts[tid].suspended = False

    def _marks(self) -> set:
        marks = getattr(self._processor, "_suspension_marks", None)
        if marks is None:
            marks = set()
            self._processor._suspension_marks = marks
        return marks

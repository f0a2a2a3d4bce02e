"""Tests for the switching history buffer and quality ledger."""

import pytest

from repro.core.history import (
    HistoryEntry,
    SwitchEvent,
    SwitchHistoryBuffer,
    SwitchQualityLedger,
)


class TestHistoryEntry:
    def test_favourable_requires_strict_majority(self):
        e = HistoryEntry()
        assert not e.favourable  # 0 == 0
        e.poscnt = 1
        assert e.favourable
        e.negcnt = 1
        assert not e.favourable


class TestSwitchHistoryBuffer:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SwitchHistoryBuffer(0)

    def test_lookup_creates_entry(self):
        b = SwitchHistoryBuffer()
        e = b.lookup(("icount", True, False))
        assert e.poscnt == 0 and e.negcnt == 0
        assert len(b) == 1

    def test_lookup_returns_same_entry(self):
        b = SwitchHistoryBuffer()
        key = ("icount", True, False)
        assert b.lookup(key) is b.lookup(key)

    def test_outcome_credits_pending_case(self):
        b = SwitchHistoryBuffer()
        key = ("icount", False, True)
        b.note_switch(key)
        b.record_outcome(True)
        assert b.lookup(key).poscnt == 1
        b.note_switch(key)
        b.record_outcome(False)
        assert b.lookup(key).negcnt == 1

    def test_outcome_without_pending_is_noop(self):
        b = SwitchHistoryBuffer()
        b.record_outcome(True)
        assert len(b) == 0

    def test_outcome_consumed_once(self):
        b = SwitchHistoryBuffer()
        key = ("x", True, True)
        b.note_switch(key)
        b.record_outcome(True)
        b.record_outcome(True)
        assert b.lookup(key).poscnt == 1

    def test_capacity_bounded(self):
        b = SwitchHistoryBuffer(capacity=4)
        for i in range(10):
            b.lookup((f"p{i}", False, False))
        assert len(b) <= 4


class TestSwitchEvent:
    def test_benign_none_until_judged(self):
        e = SwitchEvent(ipc_before=1.0)
        assert e.benign is None
        e.ipc_after = 1.2
        assert e.benign is True
        e.ipc_after = 0.8
        assert e.benign is False

    def test_equal_ipc_is_not_benign(self):
        e = SwitchEvent(ipc_before=1.0, ipc_after=1.0)
        assert e.benign is False


class TestSwitchQualityLedger:
    def test_counts(self):
        led = SwitchQualityLedger()
        led.record_switch(1.0)
        led.record_quantum_ipc(1.5)  # benign
        led.record_switch(1.5)
        led.record_quantum_ipc(1.0)  # malignant
        assert led.num_switches == 2
        assert led.num_benign == 1
        assert led.num_malignant == 1
        assert led.benign_probability == pytest.approx(0.5)

    def test_quantum_ipc_without_open_switch_ignored(self):
        led = SwitchQualityLedger()
        led.record_quantum_ipc(2.0)
        assert led.num_switches == 0

    def test_unjudged_switch_excluded_from_probability(self):
        led = SwitchQualityLedger()
        led.record_switch(1.0)
        assert led.benign_probability == 0.0  # nothing judged yet

    def test_only_first_quantum_after_switch_judges(self):
        led = SwitchQualityLedger()
        led.record_switch(1.0)
        led.record_quantum_ipc(2.0)
        led.record_quantum_ipc(0.1)  # must not re-judge
        assert led.num_benign == 1 and led.num_malignant == 0

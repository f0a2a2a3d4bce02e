"""Tests for the quantum-IPC time-series analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeseries import detect_level_shifts, dominance_profile


class TestLevelShifts:
    def test_flat_series_no_shifts(self):
        assert detect_level_shifts([1.0] * 50) == []

    def test_step_detected(self):
        series = [1.0] * 30 + [3.0] * 30
        shifts = detect_level_shifts(series)
        assert shifts, "a 2x level step must be detected"
        assert 28 <= shifts[0] <= 36

    def test_short_series_empty(self):
        assert detect_level_shifts([1.0, 2.0]) == []

    def test_downward_step_detected(self):
        series = [3.0] * 30 + [1.0] * 30
        assert detect_level_shifts(series)


class TestDominanceProfile:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dominance_profile({})

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            dominance_profile({"a": [1.0], "b": [1.0, 2.0]})

    def test_total_dominance(self):
        prof = dominance_profile({"a": [2.0, 2.0, 2.0], "b": [1.0, 1.0, 1.0]})
        assert prof.dominant_policy == "a"
        assert prof.dominance_ratio == 1.0
        assert prof.oracle_headroom() == pytest.approx(0.0)

    def test_alternating_dominance_gives_headroom(self):
        prof = dominance_profile({"a": [2.0, 1.0, 2.0, 1.0], "b": [1.0, 2.0, 1.0, 2.0]})
        assert prof.dominance_ratio == 0.5
        # Oracle gets 2.0 every quantum; fixed best gets 1.5.
        assert prof.oracle_headroom() == pytest.approx(2.0 / 1.5 - 1.0)
        assert prof.per_quantum_best == ["a", "b", "a", "b"]

    def test_mean_ipc_recorded(self):
        prof = dominance_profile({"a": [1.0, 3.0]})
        assert prof.mean_ipc["a"] == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.1, 5.0), min_size=4, max_size=40))
def test_dominance_single_policy_identity(series):
    prof = dominance_profile({"only": series})
    assert prof.dominance_ratio == 1.0
    assert prof.oracle_headroom() == pytest.approx(0.0, abs=1e-9)

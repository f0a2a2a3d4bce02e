"""Tests for the fast model's calibration constants."""

import pytest

from repro.fastmodel.calibrate import DEFAULT_CONSTANTS, CalibrationConstants


class TestCalibrationConstants:
    def test_defaults_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONSTANTS.base_cpi = 2.0

    def test_policy_bases_ordered(self):
        c = DEFAULT_CONSTANTS
        # ICOUNT is the best general allocator; RR the worst.
        assert c.icount_base > c.brcount_base
        assert c.icount_base > c.l1miss_base
        assert c.rr_base < min(c.brcount_base, c.l1miss_base)

    def test_storm_deltas_have_opposite_signs(self):
        c = DEFAULT_CONSTANTS
        assert c.icount_storm_delta < 0 < c.brcount_storm_delta

    def test_mem_deltas_have_opposite_signs(self):
        c = DEFAULT_CONSTANTS
        assert c.icount_mem_delta < 0 < c.l1miss_mem_delta

"""Tests for the dynamic instruction record."""

import pytest

from repro.smt.instruction import (
    BRANCH,
    FADD,
    FDIV,
    FMUL,
    IALU,
    IMUL,
    KIND_NAMES,
    LOAD,
    STORE,
    SYSCALL,
    Instruction,
)


class TestKinds:
    def test_kind_constants_distinct(self):
        kinds = [IALU, IMUL, FADD, FMUL, FDIV, LOAD, STORE, BRANCH, SYSCALL]
        assert len(set(kinds)) == len(kinds)

    def test_kind_names_cover_all(self):
        assert set(KIND_NAMES) == {IALU, IMUL, FADD, FMUL, FDIV, LOAD, STORE, BRANCH, SYSCALL}


class TestInstruction:
    def test_defaults(self):
        i = Instruction(0, 5, IALU, 0x100)
        assert not i.completed and not i.issued and not i.squashed
        assert not i.mispredicted
        assert i.complete_cycle == -1
        assert i.dep1 == -1 and i.dep2 == -1
        assert i.wp_ready == 0

    def test_classification_fp(self):
        for k in (FADD, FMUL, FDIV):
            assert Instruction(0, 0, k, 0).is_fp
        for k in (IALU, IMUL, LOAD, STORE, BRANCH):
            assert not Instruction(0, 0, k, 0).is_fp
        # The dispatch stage's inline form.
        for k in KIND_NAMES:
            assert Instruction(0, 0, k, 0).is_fp == (FADD <= k <= FDIV)

    def test_slots_prevent_new_attributes(self):
        i = Instruction(0, 0, IALU, 0)
        with pytest.raises(AttributeError):
            i.some_new_field = 1

    def test_repr_contains_kind_and_flags(self):
        i = Instruction(2, 7, LOAD, 0x40, addr=0x99)
        i.completed = True
        text = repr(i)
        assert "load" in text and "t2#7" in text and "C" in text

"""The disk fault family: plan plumbing, injector behavior, telemetry.

Covers the injector reading `FaultPlan`'s `disk_*` fields, the
scheduler/disk family split (disk faults never install a scheduler-level
FaultInjector and never enter grid cell keys), the injector's seeded
per-operation draws, and the injector's telemetry summary (which stays
out of run results: a disk-faulted run returns its clean twin's result).
"""

import os

import pytest

from repro.faults.plan import FaultPlan
from repro.storage.faultfs import (
    ENOSPC_AFTER_BYTES,
    FaultFS,
    active_faultfs,
    faultfs_session,
    install_faultfs,
)


def faulted_write(ffs, path, data):
    """One injected write of ``data`` to ``path``; returns the OSError."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with pytest.raises(OSError) as err:
            ffs.write(fd, data)
    finally:
        os.close(fd)
    return err.value


class TestPlanPlumbing:
    def test_disk_fields_map_to_disk_plan(self, tmp_path):
        """Each ``disk_*`` field of the one plan drives its fault."""
        path, data = tmp_path / "f", bytes(2 * ENOSPC_AFTER_BYTES)
        ffs = FaultFS(FaultPlan(seed=9, disk_torn_write_rate=1.0))
        assert faulted_write(ffs, path, data).errno == 5
        assert ffs.counts == {"torn_write": 1}
        ffs = FaultFS(FaultPlan(disk_enospc_rate=1.0))
        assert faulted_write(ffs, path, data).errno == 28
        assert len(path.read_bytes()) == ENOSPC_AFTER_BYTES
        assert ffs.counts == {"enospc": 1}
        ffs = FaultFS(FaultPlan(disk_rename_fail_rate=1.0))
        with pytest.raises(OSError):
            ffs.replace(path, tmp_path / "g")
        assert ffs.counts == {"rename_fail": 1}

    def test_no_disk_rates_no_disk_plan(self):
        """A plan with no disk rate installs no injector."""
        with faultfs_session(FaultPlan(counter_stale_rate=0.5)) as ffs:
            assert ffs is None and active_faultfs() is None

    def test_family_split(self):
        disk_only = FaultPlan(disk_torn_write_rate=0.5)
        sched_only = FaultPlan(counter_stale_rate=0.5)
        both = FaultPlan(disk_torn_write_rate=0.5, counter_stale_rate=0.5)
        assert not disk_only.any_scheduler_enabled
        assert disk_only.any_disk_enabled
        assert sched_only.any_scheduler_enabled and not sched_only.any_disk_enabled
        assert both.any_scheduler_enabled and both.any_disk_enabled

    def test_from_kinds_disk(self):
        plan = FaultPlan.from_kinds(["disk"], rate=0.4, seed=3)
        assert plan.disk_torn_write_rate == 0.4
        assert plan.disk_enospc_rate == 0.4
        assert plan.disk_rename_fail_rate == 0.4
        assert not plan.any_scheduler_enabled

    def test_all_excludes_disk(self):
        plan = FaultPlan.from_kinds(["all"], rate=0.4)
        assert not plan.any_disk_enabled
        assert plan.any_scheduler_enabled

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(disk_torn_write_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(disk_rename_fail_rate=-0.1)


class TestSessionScoping:
    def test_session_restores_previous(self):
        outer = FaultFS(FaultPlan(seed=0, disk_torn_write_rate=0.5))
        install_faultfs(outer)
        try:
            inner_plan = FaultPlan(seed=1, disk_rename_fail_rate=0.5)
            with faultfs_session(inner_plan) as inner:
                assert active_faultfs() is inner
                assert inner is not outer
            assert active_faultfs() is outer
        finally:
            install_faultfs(None)

    def test_none_session_runs_clean(self):
        outer = FaultFS(FaultPlan(seed=0, disk_torn_write_rate=0.5))
        install_faultfs(outer)
        try:
            with faultfs_session(None):
                assert active_faultfs() is None
            assert active_faultfs() is outer
        finally:
            install_faultfs(None)


class TestInjectorBehavior:
    def test_summary_shape(self, tmp_path):
        ffs = FaultFS(FaultPlan(seed=0, disk_enospc_rate=1.0))
        faulted_write(ffs, tmp_path / "f", b"x")
        s = ffs.summary()
        assert s == {
            "disk_faults_injected": 1,
            "disk_fault_counts": {"enospc": 1},
        }

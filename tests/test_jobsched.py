"""Tests for thread swapping and the job-scheduler symbiosis."""

import pytest

from conftest import assert_counter_consistency
from repro import build_processor
from repro.core.jobsched import JobPool, JobSchedulerHook
from repro.core.adts import ADTSController
from repro.core.thresholds import ThresholdConfig
from repro.workloads.profiles import get_profile
from repro.workloads.tracegen import TraceGenerator

import numpy as np


class TestSwapThread:
    def test_swap_drops_in_flight_and_rebinds(self, quick_proc):
        proc = quick_proc()
        proc.run(1500)
        new_trace = TraceGenerator(get_profile("vortex"), 9, np.random.default_rng(99))
        proc.swap_thread(1, new_trace, switch_penalty=50)
        assert_counter_consistency(proc)
        ctx = proc.contexts[1]
        assert ctx.trace is new_trace
        assert not ctx.rob
        assert proc.counters[1].icount == 0
        assert not ctx.wrong_path

    def test_swapped_thread_resumes_and_commits(self, quick_proc):
        proc = quick_proc()
        proc.run(1000)
        new_trace = TraceGenerator(get_profile("vortex"), 9, np.random.default_rng(99))
        proc.swap_thread(0, new_trace, switch_penalty=20)
        before = proc.stats.per_thread_committed.get(0, 0)
        proc.run(2000)
        assert proc.stats.per_thread_committed.get(0, 0) > before

    def test_swap_back_in_resumes_old_job(self, quick_proc):
        proc = quick_proc()
        proc.run(1000)
        old_trace = proc.contexts[2].trace
        old_seq = old_trace.seq
        other = TraceGenerator(get_profile("vortex"), 9, np.random.default_rng(9))
        proc.swap_thread(2, other, switch_penalty=20)
        proc.run(500)
        proc.swap_thread(2, old_trace, switch_penalty=20)
        proc.run(1500)
        assert old_trace.seq > old_seq  # the original job kept running
        assert_counter_consistency(proc)

    def test_machine_keeps_running_after_many_swaps(self, quick_proc):
        proc = quick_proc()
        traces = [
            TraceGenerator(get_profile(app), 10 + i, np.random.default_rng(i))
            for i, app in enumerate(["gzip", "mcf", "swim", "vortex"])
        ]
        for i, trace in enumerate(traces):
            proc.run(400)
            proc.swap_thread(i % 4, trace, switch_penalty=30)
            assert_counter_consistency(proc)
        before = proc.stats.committed
        proc.run(2000)
        assert proc.stats.committed > before


class TestJobPool:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JobPool([])

    def test_distinct_traces(self):
        pool = JobPool(["gzip", "gzip", "mcf"])
        assert len(pool) == 3
        assert pool.jobs[0].trace is not pool.jobs[1].trace
        assert pool.jobs[0].trace.tid != pool.jobs[1].trace.tid


class TestJobSchedulerHook:
    def make(self, mode="guided", pool_apps=None, **kw):
        pool = JobPool(pool_apps or ["gzip", "crafty", "swim", "mcf", "vortex", "eon"])
        hook = JobSchedulerHook(pool, mode=mode, interval_quanta=2,
                                swaps_per_interval=1, switch_penalty=30, **kw)
        return pool, hook

    def test_rejects_bad_mode(self):
        pool = JobPool(["gzip"] * 4)
        with pytest.raises(ValueError):
            JobSchedulerHook(pool, mode="psychic")

    def test_rejects_pool_smaller_than_contexts(self, quick_proc):
        pool = JobPool(["gzip", "mcf"])
        hook = JobSchedulerHook(pool)
        with pytest.raises(ValueError):
            quick_proc(hook=hook)

    def test_swaps_happen(self, quick_proc):
        pool, hook = self.make()
        proc = quick_proc(hook=hook)
        proc.run_quanta(8)
        assert hook.swaps > 0
        assert len(hook.waiting) == 2  # pool 6, contexts 4

    def test_all_jobs_eventually_scheduled(self, quick_proc):
        pool, hook = self.make(mode="oblivious")
        proc = quick_proc(hook=hook)
        proc.run_quanta(16)
        # A job that ever held a context has fetched from its trace.
        assert all(j.trace.seq > 0 for j in pool.jobs)

    def test_counter_consistency_across_swaps(self, quick_proc):
        pool, hook = self.make()
        proc = quick_proc(hook=hook)
        for _ in range(8):
            proc.run_quanta(1)
            assert_counter_consistency(proc)

    def test_summary_shape(self, quick_proc):
        pool, hook = self.make()
        proc = quick_proc(hook=hook)
        proc.run_quanta(4)
        s = hook.summary()
        assert s["mode"] == "guided"
        assert "adts" in s and "resident" in s

    def test_guided_mode_prefers_flagged_victims(self, quick_proc):
        adts = ADTSController(thresholds=ThresholdConfig(ipc_threshold=99.0),
                              instant_dt=True)
        pool, hook = self.make(adts=adts)
        proc = quick_proc(hook=hook)
        proc.run_quanta(12)
        # With the absurd threshold, clogging identification runs every
        # quantum; guided evictions are counted when flags existed.
        assert hook.swaps > 0
        assert hook.guided_evictions >= 0  # smoke: path exercised

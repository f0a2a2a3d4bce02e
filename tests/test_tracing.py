"""Tests for pipeline event tracing."""


from repro import build_processor
from repro.smt.config import SMTConfig
from repro.smt.pipeline import SMTProcessor
from repro.smt.tracing import CAPACITY, PipelineTracer
from repro.workloads.tracegen import make_generators


def traced_proc():
    tracer = PipelineTracer()
    cfg = SMTConfig(num_threads=2)
    proc = SMTProcessor(cfg, make_generators(["gzip", "crafty"]),
                        quantum_cycles=512, tracer=tracer)
    return proc, tracer


class TestPipelineTracer:
    def test_records_all_event_kinds(self):
        proc, tracer = traced_proc()
        proc.run(3000)
        for event in ("fetch", "dispatch", "issue", "complete", "commit"):
            assert tracer.counts[event] > 0, event
        assert tracer.counts["squash"] >= 0  # mispredicts may or may not fire

    def test_lifecycle_ordering(self):
        proc, tracer = traced_proc()
        proc.run(3000)
        # Pick a committed instruction and check its lifecycle ordering.
        commits = [e for e in tracer.events if e.event == "commit" and e.seq > 10]
        assert commits
        sample = commits[0]
        events = tracer.for_instruction(sample.tid, sample.seq)
        order = [e.event for e in sorted(events, key=lambda e: e.cycle)]
        assert order.index("fetch") < order.index("dispatch") < order.index("issue")
        assert order.index("issue") < order.index("complete") <= order.index("commit")

    def test_lifecycle_latencies_positive(self):
        proc, tracer = traced_proc()
        proc.run(3000)
        sample = next(e for e in tracer.events if e.event == "commit" and e.seq > 10)
        latencies = tracer.lifecycle_latencies(sample.tid, sample.seq)
        assert latencies
        assert all(v >= 0 for v in latencies.values())
        # The front-end delay line imposes at least its latency.
        if "fetch->dispatch" in latencies:
            assert latencies["fetch->dispatch"] >= proc._front_latency

    def test_counts_balance(self):
        proc, tracer = traced_proc()
        proc.run(4000)
        c = tracer.counts
        # Everything committed or squashed was fetched.
        assert c["commit"] + c["squash"] <= c["fetch"]
        # Nothing commits without completing first.
        assert c["commit"] <= c["complete"]

    def test_ring_buffer_bounded(self):
        proc, tracer = traced_proc()
        proc.run(2000)
        assert tracer.events.maxlen == CAPACITY
        assert len(tracer.events) <= CAPACITY

    def test_window_and_thread_queries(self):
        proc, tracer = traced_proc()
        proc.run(1500)
        window = tracer.window(100, 200)
        assert all(100 <= e.cycle < 200 for e in window)
        first = window[0]
        events = tracer.for_instruction(first.tid, first.seq)
        assert first in events
        assert all((e.tid, e.seq) == (first.tid, first.seq) for e in events)

    def test_render(self):
        proc, tracer = traced_proc()
        proc.run(300)
        text = tracer.render(limit=5)
        assert "cycle" in text
        assert len(text.splitlines()) <= 6

    def test_no_tracer_no_overhead_path(self):
        proc = build_processor(mix=["gzip"], quantum_cycles=512)
        proc.run(500)  # must simply work with tracer=None
        assert proc.tracer is None

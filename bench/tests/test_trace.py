"""Self time and shares on synthetic span trees."""

import math

import pytest

from bench import trace as tr

ROOT_PID, CHILD_PID = 100, 200


def span(index, name, start, end, parent=None, pid=ROOT_PID):
    return tr.Span(
        tr.global_id(pid, index), name, start, end,
        parent.gid if parent is not None else tr.NO_PARENT, None, pid,
    )


def as_shares(seconds):
    total = sum(seconds.values())
    return {k: v / total for k, v in seconds.items()}


def shares_of(spans, roots, aggs=()):
    seconds = tr.attribute(roots, tr.children_of(spans), aggs, root_name="unaccounted")
    return as_shares(seconds), seconds


def test_nested_spans():
    root = span(0, "phase", 0.0, 10.0)
    a = span(1, "a", 1.0, 4.0, root)
    leaf = span(2, "leaf", 2.0, 3.0, a)
    b = span(3, "b", 5.0, 9.0, root)
    spans = [root, a, leaf, b]
    children = tr.children_of(spans)
    assert tr.self_time(root, children) == pytest.approx(3.0)
    assert tr.self_time(a, children) == pytest.approx(2.0)
    assert tr.self_time(leaf, children) == pytest.approx(1.0)
    shares, seconds = shares_of(spans, [root])
    assert sum(shares.values()) == pytest.approx(1.0)
    assert sum(seconds.values()) == pytest.approx(10.0)
    assert shares == pytest.approx({"unaccounted": 0.3, "a": 0.2, "leaf": 0.1, "b": 0.4})


def test_overlapping_children_count_once():
    root = span(0, "phase", 0.0, 10.0)
    a = span(1, "a", 1.0, 6.0, root)
    b = span(2, "b", 4.0, 8.0, root)
    spans = [root, a, b]
    # The parent's self time subtracts the union of its children.
    assert tr.self_time(root, tr.children_of(spans)) == pytest.approx(3.0)
    shares, _ = shares_of(spans, [root])
    assert sum(shares.values()) == pytest.approx(1.0)
    # The earlier child owns the overlap.
    assert shares == pytest.approx({"unaccounted": 0.3, "a": 0.5, "b": 0.2})


def test_child_outside_parent_is_clipped():
    root = span(0, "phase", 0.0, 10.0)
    late = span(1, "late", 8.0, 12.0, root)
    shares, seconds = shares_of([root, late], [root])
    assert sum(seconds.values()) == pytest.approx(10.0)
    assert shares["late"] == pytest.approx(0.2)


def test_child_span_from_another_pid():
    attempt = span(0, "executor.attempt", 0.0, 10.0)
    task = span(0, "worker.task", 2.0, 9.0, attempt, pid=CHILD_PID)
    sim = span(1, "sim.run", 3.0, 8.0, task, pid=CHILD_PID)
    spans = [attempt, task, sim]
    children = tr.children_of(spans)
    assert tr.self_time(attempt, children) == pytest.approx(3.0)
    seconds = tr.attribute([attempt], children)
    assert as_shares(seconds) == pytest.approx(
        {"executor.attempt": 0.3, "worker.task": 0.2, "sim.run": 0.5})
    assert sum(as_shares(seconds).values()) == pytest.approx(1.0)


def test_aggregates_come_out_of_their_span():
    root = span(0, "phase", 0.0, 10.0)
    run = span(1, "sim.run", 0.0, 8.0, root)
    aggs = [tr.Aggregate(run.gid, "tracegen", 1000, 2.0)]
    shares, _ = shares_of([root, run], [root], aggs)
    assert shares == pytest.approx({"unaccounted": 0.2, "sim.run": 0.6, "tracegen": 0.2})
    # Aggregates can never claim more than their span's own time.
    too_much = [tr.Aggregate(run.gid, "tracegen", 1, 12.0)]
    shares, _ = shares_of([root, run], [root], too_much)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["tracegen"] == pytest.approx(0.8)


def test_several_roots_sum_to_their_total():
    a = span(0, "executor.attempt", 0.0, 4.0)
    b = span(1, "executor.attempt", 2.0, 8.0)
    task = span(0, "worker.task", 3.0, 7.0, b, pid=CHILD_PID)
    seconds = tr.attribute([a, b], tr.children_of([a, b, task]))
    assert sum(seconds.values()) == pytest.approx(10.0)


def test_recorder_nests_and_round_trips(tmp_path):
    ticks = iter(range(100))
    rec = tr.Recorder(clock=lambda: float(next(ticks)))
    outer = rec.begin("phase")
    inner = rec.begin("sim.run", request="r1")
    rec.add("tracegen", 0.5)
    rec.end(inner)
    rec.count("store.gets", 3)
    rec.end(outer)
    spans = rec.spans()
    assert [s.name for s in spans] == ["phase", "sim.run"]
    assert spans[1].parent == spans[0].gid and spans[1].request == "r1"
    assert rec.aggregates() == [tr.Aggregate(spans[1].gid, "tracegen", 1, 0.5)]
    path = tmp_path / "spool.jsonl"
    rec.dump(path)
    assert tr.load([path]) == (spans, rec.aggregates(), {"store.gets": 3})


def test_forked_child_starts_a_fresh_lane():
    rec = tr.Recorder()
    attempt = rec.begin_async("executor.attempt")
    rec.fork_parent = rec.gid(attempt)
    rec.pid = -1  # as seen from a forked child: the pid changed
    rec.enter_child()
    task = rec.begin("worker.task")
    rec.end(task)
    (only,) = rec.spans()
    assert only.parent == rec.fork_parent
    assert only.gid >> 32 & tr.CHILD_LANE
    assert not math.isnan(only.end)

"""In-memory span recorder and the self-time / share arithmetic over spans.

A span is one timed interval at a layer boundary: name, start, end, the
span that caused it (``parent``), a request id shared by every span of one
request, and the pid that recorded it. Spans stay in memory; a process
that is about to exit (an executor worker) writes its spans to one JSONL
file, and the benchmark merges those files afterwards.

Calls too frequent for a span each (one per generated instruction) are
*aggregated*: their count and total time are charged to the innermost open
span, which they never overlap because they run on the same thread.

Two numbers come out of a span tree:

* :func:`self_time` — a span's duration minus the part of its interval its
  child spans cover (children from another process included: a worker's
  task span covers the parent-side attempt that waited for it);
* :func:`attribute` — every instant of each root's interval charged to
  exactly one name, so the per-name totals sum to the roots' duration. A
  span owns its self time; where siblings overlap, the earlier-starting
  one owns the overlap, and a child is clipped to its parent's interval.
  Without overlaps the two agree.
"""

from __future__ import annotations

import json
import math
import os
import time
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

NO_PARENT = -1
#: Lane bit of forked children; real pids stay below it.
CHILD_LANE = 1 << 24


class Span(NamedTuple):
    gid: int
    name: str
    start: float
    end: float
    parent: int
    request: Optional[str]
    pid: int


class Aggregate(NamedTuple):
    """``count`` calls of ``name`` totalling ``seconds``, inside ``parent``."""

    parent: int
    name: str
    count: int
    seconds: float


def global_id(lane: int, index: int) -> int:
    """A span id unique across the processes of one run."""
    return (lane << 32) | index


class Recorder:
    """Per-process span store. Not thread-safe: one recording thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Parent id the next forked child adopts for its root spans.
        self.fork_parent = NO_PARENT
        self._reset(os.getpid(), os.getpid(), NO_PARENT)

    def _reset(self, pid: int, lane: int, origin: int) -> None:
        self.pid = pid
        #: High bits of this store's span ids: the pid in the process that
        #: made the recorder, else derived from the forking span's id, since
        #: a pid can be reused by a later worker within one run.
        self.lane = lane
        self._origin = origin
        self._names: List[str] = []
        self._name_ix: Dict[str, int] = {}
        self._name_ids = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._requests: List[Optional[str]] = []
        self._stack: List[int] = []
        self._aggs: Dict[Tuple[int, str], List[float]] = {}
        self.counts: Dict[str, float] = {}

    def enter_child(self) -> None:
        """Start a fresh store in a forked child (its copy of the parent's
        spans is dropped); root spans here hang under ``fork_parent``."""
        if os.getpid() != self.pid:
            lane = CHILD_LANE | (self.fork_parent & 0xFFFFFF)
            self._reset(os.getpid(), lane, self.fork_parent)

    # -- recording ------------------------------------------------------------
    def _open(self, name: str, request: Optional[str], parent: int) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self._names)
            self._names.append(name)
        i = len(self._starts)
        self._name_ids.append(ix)
        self._starts.append(self.clock())
        self._ends.append(math.nan)
        self._parents.append(parent)
        self._requests.append(request)
        return i

    def begin(self, name: str, request: Optional[str] = None) -> int:
        """Open a span nested in the innermost open one; returns its index."""
        stack = self._stack
        parent = global_id(self.lane, stack[-1]) if stack else self._origin
        i = self._open(name, request, parent)
        stack.append(i)
        return i

    def end(self, i: int) -> None:
        """Close span ``i`` (opened by :meth:`begin`)."""
        self._ends[i] = self.clock()
        stack = self._stack
        if stack and stack[-1] == i:
            stack.pop()
        elif i in stack:
            stack.remove(i)

    def begin_async(self, name: str, request: Optional[str] = None) -> int:
        """Open a root span that outlives the call that opened it (an
        executor attempt); it never becomes the parent of nested calls."""
        return self._open(name, request, NO_PARENT)

    def end_async(self, i: int) -> None:
        self._ends[i] = self.clock()

    def add(self, name: str, seconds: float) -> None:
        """Charge one aggregated call of ``name`` to the innermost open span."""
        stack = self._stack
        key = (global_id(self.lane, stack[-1]) if stack else self._origin, name)
        agg = self._aggs.get(key)
        if agg is None:
            self._aggs[key] = [1, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def gid(self, i: int) -> int:
        return global_id(self.lane, i)

    # -- export ---------------------------------------------------------------
    def spans(self) -> List[Span]:
        names, lane, pid = self._names, self.lane, self.pid
        return [
            Span(global_id(lane, i), names[n], s, e, p, r, pid)
            for i, (n, s, e, p, r) in enumerate(
                zip(self._name_ids, self._starts, self._ends,
                    self._parents, self._requests)
            )
        ]

    def aggregates(self) -> List[Aggregate]:
        return [
            Aggregate(parent, name, int(c), s)
            for (parent, name), (c, s) in self._aggs.items()
        ]

    def dump(self, path) -> None:
        """Write this process's spans, aggregates and counts as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans():
                fh.write(json.dumps(["span", *s]) + "\n")
            for a in self.aggregates():
                fh.write(json.dumps(["agg", *a]) + "\n")
            fh.write(json.dumps(["counts", self.counts]) + "\n")


def load(paths: Iterable) -> Tuple[List[Span], List[Aggregate], Dict[str, float]]:
    """Merge spool files written by :meth:`Recorder.dump`."""
    spans: List[Span] = []
    aggs: List[Aggregate] = []
    counts: Dict[str, float] = {}
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            kind, *rest = json.loads(line)
            if kind == "span":
                spans.append(Span(*rest))
            elif kind == "agg":
                aggs.append(Aggregate(*rest))
            else:
                for k, v in rest[0].items():
                    counts[k] = counts.get(k, 0) + v
    return spans, aggs, counts


# -- arithmetic ---------------------------------------------------------------
def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Parent id -> its child spans, in start order."""
    out: Dict[int, List[Span]] = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    for kids in out.values():
        kids.sort(key=lambda s: s.start)
    return out


def _covered(lo: float, hi: float, kids: Sequence[Span]) -> float:
    """Length of the union of the kids' intervals within [lo, hi]."""
    total, cursor = 0.0, lo
    for k in kids:
        s, e = max(k.start, cursor), min(_end(k, hi), hi)
        if e > s:
            total += e - s
            cursor = e
    return total


def _end(span: Span, default: float) -> float:
    return default if math.isnan(span.end) else span.end


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """Duration minus the part of the span's interval its children cover."""
    end = _end(span, span.start)
    return (end - span.start) - _covered(span.start, end, children.get(span.gid, ()))


def attribute(
    roots: Sequence[Span],
    children: Dict[int, List[Span]],
    aggregates: Iterable[Aggregate] = (),
    root_name: Optional[str] = None,
) -> Dict[str, float]:
    """Charge every instant of the roots' intervals to exactly one name.

    Returns seconds per name; their sum equals the roots' total duration.
    A root's own self time goes to ``root_name`` (default: its own name),
    so a root standing for "the whole timed phase" reports what no layer
    span claimed as e.g. ``unaccounted``. Aggregated calls take their time
    out of the span they ran in, scaled down if clock granularity made
    them exceed it.
    """
    agg_by_parent: Dict[int, List[Aggregate]] = {}
    for a in aggregates:
        agg_by_parent.setdefault(a.parent, []).append(a)
    out: Dict[str, float] = {}
    stack = [(r, r.start, _end(r, r.start), root_name or r.name) for r in roots]
    while stack:
        span, lo, hi, name = stack.pop()
        covered, cursor = 0.0, lo
        for kid in children.get(span.gid, ()):
            s, e = max(kid.start, cursor), min(_end(kid, hi), hi)
            if e > s:
                stack.append((kid, s, e, kid.name))
                covered += e - s
                cursor = e
        own = max(0.0, (hi - lo) - covered)
        aggs = agg_by_parent.get(span.gid, ())
        agg_total = sum(a.seconds for a in aggs)
        scale = min(1.0, own / agg_total) if agg_total > 0 else 0.0
        for a in aggs:
            out[a.name] = out.get(a.name, 0.0) + a.seconds * scale
        out[name] = out.get(name, 0.0) + own - agg_total * scale
    return out


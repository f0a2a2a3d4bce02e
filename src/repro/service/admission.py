"""Bounded, priority- and deadline-aware admission queue.

The queue is the service's backpressure boundary: it is *bounded* (a full
queue refuses new work with a machine-readable reason instead of growing
until the process OOMs), *fair* (a per-client cap stops one hot client from
occupying every slot and starving the rest), *priority-aware* (higher
priority dequeues first; EDF within a priority band; FIFO last), and
*deadline-aware* (a job whose deadline passed while it waited is shed at
dequeue — simulating an answer nobody is still waiting for wastes a
worker).

Admission decisions depend only on queue state, never on wall-clock
arrival jitter, so a burst submitted before any dequeue yields a fully
deterministic admitted/refused breakdown — the property the overload demo
and the hypothesis tests pin down.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.service.request import QueueEntry

#: Machine-readable refusal reasons (`` reject_reason`` on a refused offer).
REASON_QUEUE_FULL = "queue-full"
REASON_CLIENT_QUOTA = "client-quota"


class AdmissionQueue:
    """Bounded priority queue with per-client fairness caps.

    ``capacity`` bounds total queued entries. ``per_client_cap`` bounds one
    client's share of those slots (defaults to half the capacity, at least
    one) — the knob that keeps a single hot client from starving everyone
    else.
    """

    def __init__(self, capacity: int, per_client_cap: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        if per_client_cap is None:
            per_client_cap = max(1, capacity // 2)
        if per_client_cap < 1:
            raise ValueError("per_client_cap must be >= 1")
        self.per_client_cap = per_client_cap
        self._heap: List[Tuple[tuple, QueueEntry]] = []
        self._per_client: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def depth(self) -> int:
        return len(self._heap)

    def offer(self, entry: QueueEntry) -> Optional[str]:
        """Try to admit ``entry``; returns None on success or the refusal
        reason (:data:`REASON_QUEUE_FULL` / :data:`REASON_CLIENT_QUOTA`)."""
        if len(self._heap) >= self.capacity:
            return REASON_QUEUE_FULL
        client = entry.request.client
        if self._per_client.get(client, 0) >= self.per_client_cap:
            return REASON_CLIENT_QUOTA
        heapq.heappush(self._heap, (entry.sort_key(), entry))
        self._per_client[client] = self._per_client.get(client, 0) + 1
        return None

    def take(self, now: float) -> Tuple[Optional[QueueEntry], List[QueueEntry]]:
        """Pop the best non-expired entry; expired entries met on the way
        are shed. Returns ``(entry_or_None, shed_entries)``."""
        shed: List[QueueEntry] = []
        while self._heap:
            _, entry = heapq.heappop(self._heap)
            self._uncount(entry)
            if entry.expired(now):
                shed.append(entry)
                continue
            return entry, shed
        return None, shed

    def shed_expired(self, now: float) -> List[QueueEntry]:
        """Remove and return every queued entry whose deadline has passed
        (without dequeuing live work)."""
        shed = [e for _, e in self._heap if e.expired(now)]
        if shed:
            self._heap = [(k, e) for k, e in self._heap if not e.expired(now)]
            heapq.heapify(self._heap)
            for entry in shed:
                self._uncount(entry)
        return shed

    def take_if(self, now: float, predicate) -> Tuple[Optional[QueueEntry], List[QueueEntry]]:
        """Pop the best non-expired entry satisfying ``predicate``; entries
        that fail the predicate stay queued in order."""
        kept: List[Tuple[tuple, QueueEntry]] = []
        shed: List[QueueEntry] = []
        found: Optional[QueueEntry] = None
        while self._heap:
            key, entry = heapq.heappop(self._heap)
            if entry.expired(now):
                self._uncount(entry)
                shed.append(entry)
                continue
            if predicate(entry):
                self._uncount(entry)
                found = entry
                break
            kept.append((key, entry))
        for key_entry in kept:
            heapq.heappush(self._heap, key_entry)
        return found, shed

    def drain_all(self) -> List[QueueEntry]:
        """Remove and return everything still queued (drain teardown)."""
        entries = [e for _, e in sorted(self._heap)]
        self._heap = []
        self._per_client = {}
        return entries

    def _uncount(self, entry: QueueEntry) -> None:
        client = entry.request.client
        left = self._per_client.get(client, 0) - 1
        if left <= 0:
            self._per_client.pop(client, None)
        else:
            self._per_client[client] = left

"""The ``repro serve`` loop: JSON-lines in, JSON-lines out.

Transport is deliberately plain stdin/stdout JSONL — no sockets, no new
dependencies, trivially driven from a subprocess in tests and CI. One JSON
object per line in either direction.

Requests (client → service)::

    {"op": "submit", "request": {"request_id": "r1", "mix": "mix05", ...}}
    {"request_id": "r1", ...}          # bare object == submit shorthand
    {"op": "stats"} | {"op": "health"}
    {"op": "pause"} | {"op": "resume"}
    {"op": "shutdown"}                 # drain and exit

Events (service → client)::

    {"event": "ready", ...}
    {"event": "response", "response": {...}}   # exactly one per request
    {"event": "stats"|"health", ...}
    {"event": "error", "detail": "..."}        # unparseable line, unknown op
    {"event": "drained", "stats": {...}}       # last line before exit 0

Every counter lives in ``stats["counters"]``, the front door's one flat
counter map (see :mod:`repro.service.router`); ``health`` is its
readiness headline.

Lifecycle: SIGTERM/SIGINT (or ``{"op": "shutdown"}``) stops admission and
drains within the configured deadline; EOF on stdin finishes outstanding
work first, then drains. Either way every accepted request has produced its
response before the final ``drained`` event, and the process exits 0.

**Single-threaded by necessity, not just taste.** Input from a real file
descriptor is polled non-blocking from the main loop (``os.read`` +
``O_NONBLOCK``), *not* read by a helper thread: the service forks worker
processes, and a thread parked inside ``stdin.readline()`` holds the
buffered reader's lock across the fork — the child then deadlocks in
``multiprocessing.util._close_stdin()`` trying to take a lock whose owner
does not exist in the child. A reader thread is kept only as a fallback
for fd-less file-likes (in-process tests), which never fork.
"""

from __future__ import annotations

import io
import json
import os
import queue as queue_mod
import signal
import sys
import threading
import time
from typing import IO, List, Optional

from repro.harness.executor import POLL_INTERVAL_S
from repro.service.loadgen import TimedRequest, save_recording
from repro.service.request import SimRequest
from repro.service.router import ShardedService

_EOF = object()


class ServeLoop:
    """Single-threaded pump around the
    :class:`~repro.service.router.ShardedService` front door, interleaving
    input polling, :meth:`~repro.service.router.ShardedService.pump`, and
    response emission."""

    def __init__(
        self,
        service: ShardedService,
        infile: Optional[IO] = None,
        outfile: Optional[IO[str]] = None,
        drain_deadline_s: Optional[float] = None,
        record_path: Optional[str] = None,
    ) -> None:
        self.service = service
        self.infile = infile if infile is not None else sys.stdin
        self.outfile = outfile if outfile is not None else sys.stdout
        self.drain_deadline_s = drain_deadline_s
        #: When set, every admitted-for-parsing request is captured with its
        #: arrival offset and written as a ``traffic-recording`` artifact at
        #: drain — the capture half of ``repro serve --record`` /
        #: ``repro replay``.
        self.record_path = record_path
        self._recorded: List[TimedRequest] = []
        self._t0: Optional[float] = None
        try:
            self._fd: Optional[int] = self.infile.fileno()
        except (AttributeError, OSError, io.UnsupportedOperation):
            self._fd = None  # fd-less file-like: thread fallback
        self._buf = b""
        self._lines: "queue_mod.Queue[object]" = queue_mod.Queue()
        self._stop = False
        self._eof = False
        self._auto_id = 0

    # -- plumbing ------------------------------------------------------------
    def _emit(self, obj: dict) -> None:
        self.outfile.write(json.dumps(obj, sort_keys=True) + "\n")
        self.outfile.flush()

    def _emit_drift_events(self) -> None:
        """Surface drift-guard escalations/clears on the event stream so
        operators can correlate them with scale and breaker events."""
        guard = self.service.drift_guard
        if guard is None:
            return
        for event in guard.take_events():
            self._emit({"event": "drift", **event.to_dict()})

    def _read_lines_thread(self) -> None:
        for line in self.infile:
            self._lines.put(line)
        self._lines.put(_EOF)

    def _poll_input(self) -> List[str]:
        """Drain whatever input is available right now, without blocking."""
        if self._fd is None:
            lines: List[str] = []
            while True:
                try:
                    item = self._lines.get_nowait()
                except queue_mod.Empty:
                    return lines
                if item is _EOF:
                    self._eof = True
                    return lines
                lines.append(item)
        while not self._eof:
            try:
                chunk = os.read(self._fd, 65536)
            except BlockingIOError:
                break
            except InterruptedError:
                continue
            if not chunk:
                self._eof = True
                break
            self._buf += chunk
        *complete, self._buf = self._buf.split(b"\n")
        if self._eof and self._buf:
            complete.append(self._buf)  # unterminated final line
            self._buf = b""
        return [c.decode("utf-8", errors="replace") for c in complete]

    def _request_stop(self, signum: int, _frame: object) -> None:
        self._stop = True

    # -- input handling ------------------------------------------------------
    def _handle_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("expected a JSON object")
        except ValueError as exc:
            self._emit({"event": "error", "detail": f"bad input line: {exc}"})
            return
        op = payload.get("op", "submit")
        if op == "submit":
            self._handle_submit(payload.get("request", payload))
        elif op == "stats":
            self._emit({"event": "stats", "stats": self.service.stats()})
        elif op == "health":
            self._emit({"event": "health", "health": self.service.health()})
        elif op == "pause":
            self.service.paused = True
            self._emit({"event": "paused"})
        elif op == "resume":
            self.service.paused = False
            self._emit({"event": "resumed"})
        elif op == "shutdown":
            self._stop = True
        elif op == "meta":
            # Descriptive header (e.g. the spec line `repro burst --emit`
            # writes): acknowledge and carry on, so emitted burst files
            # replay straight through `repro serve` unedited.
            self._emit({"event": "meta-ack"})
        else:
            self._emit({"event": "error", "detail": f"unknown op {op!r}"})

    def _handle_submit(self, body: object) -> None:
        if not isinstance(body, dict):
            self._emit({"event": "error", "detail": "submit body must be an object"})
            return
        if "request_id" not in body:
            self._auto_id += 1
            body = dict(body, request_id=f"auto-{self._auto_id:06d}")
        try:
            request = SimRequest.from_json(body)
        except (TypeError, ValueError) as exc:
            self._emit({"event": "error", "detail": f"bad request: {exc}"})
            return
        if self.record_path is not None:
            at = 0.0 if self._t0 is None else time.monotonic() - self._t0
            self._recorded.append(TimedRequest(at_s=at, request=request))
        self.service.submit(request)
        # The response (immediate or eventual) flows out via take_completed.

    # -- main loop -----------------------------------------------------------
    def run(self) -> int:
        """Serve until shutdown; returns the process exit code (0)."""
        if self._fd is not None:
            os.set_blocking(self._fd, False)
        else:
            threading.Thread(target=self._read_lines_thread, daemon=True).start()
        prev_term = signal.signal(signal.SIGTERM, self._request_stop)
        prev_int = signal.signal(signal.SIGINT, self._request_stop)
        self._t0 = time.monotonic()
        try:
            self._emit(
                {
                    "event": "ready",
                    "workers": self.service.config.workers,
                    "queue_capacity": self.service.config.queue_capacity,
                    "shards": self.service.num_shards,
                }
            )
            while not self._stop:
                busy = False
                for line in self._poll_input():
                    busy = True
                    self._handle_line(line)
                    if self._stop:
                        break
                if self.service.pump():
                    busy = True
                self._emit_drift_events()
                for response in self.service.take_completed():
                    self._emit({"event": "response", "response": response.to_json()})
                if self._eof and self.service.pending == 0:
                    break  # input exhausted, all work answered: wind down
                if not busy:
                    time.sleep(POLL_INTERVAL_S)
            stats = self.service.drain(self.drain_deadline_s)
            self._emit_drift_events()
            for response in self.service.take_completed():
                self._emit({"event": "response", "response": response.to_json()})
            if self.record_path is not None:
                save_recording(
                    self.record_path,
                    self._recorded,
                    meta={"source": "serve", "submitted": len(self._recorded)},
                )
                self._emit(
                    {
                        "event": "recorded",
                        "path": str(self.record_path),
                        "requests": len(self._recorded),
                    }
                )
            self._emit({"event": "drained", "stats": stats})
            return 0
        finally:
            signal.signal(signal.SIGTERM, prev_term)
            signal.signal(signal.SIGINT, prev_int)

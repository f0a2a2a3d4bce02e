"""Subprocess tests for the serving CLI: `repro serve` speaking JSONL over
stdio, overload behaviour under a seeded burst, SIGTERM graceful drain
(exit 0, no orphan workers, no result-store lease left behind), a
process-group SIGINT that the workers outlive so the drain answers in
full, request coalescing on the default (one-shard) front door, and the
`repro grid --workers N` signal handlers (exit 128+signum, pool killed,
journal lock released)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness.journal import RunJournal

SRC = str(Path(repro.__file__).resolve().parents[1])

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="signal/orphan checks use POSIX + /proc"
)


def _spawn(args, cwd, **popen_kw):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=str(cwd), **popen_kw,
    )


def _children(pid):
    path = Path(f"/proc/{pid}/task/{pid}/children")
    try:
        return [int(p) for p in path.read_text().split()]
    except (FileNotFoundError, ValueError):
        return []


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _assert_all_exit(pids, timeout_s=60.0):
    """Every pid must be gone within ``timeout_s``.

    A short grace period, not an instant check: a signal can land between
    fork and the supervisor recording the child, in which case that one
    worker escapes the SIGKILL sweep and simply finishes its (small) cell
    on its own. What must never happen is a *permanently* orphaned
    simulator burning CPU.
    """
    deadline = time.monotonic() + timeout_s
    pending = list(pids)
    while pending and time.monotonic() < deadline:
        pending = [p for p in pending if _alive(p)]
        if pending:
            time.sleep(0.05)
    assert not pending, f"orphan workers survived: {pending}"


def _events(stdout_text):
    return [json.loads(line) for line in stdout_text.splitlines() if line]


SERVE_ARGS = ["serve", "--workers", "2", "--queue-capacity", "8",
              "--drain-deadline", "60"]
BURST_ARGS = ["burst", "--emit", "--requests", "40", "--seed", "0",
              "--quanta", "1", "--quantum", "128"]


def _await_ready(proc):
    line = proc.stdout.readline()
    assert json.loads(line)["event"] == "ready"


class TestServe:
    def test_seeded_burst_overload_and_clean_eof_shutdown(self, tmp_path):
        burst = subprocess.run(
            [sys.executable, "-m", "repro", *BURST_ARGS],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": SRC}, cwd=str(tmp_path),
        ).stdout
        proc = _spawn(SERVE_ARGS, tmp_path)
        try:
            _await_ready(proc)
            stdin_payload = (
                json.dumps({"op": "pause"}) + "\n" + burst
                + json.dumps({"op": "resume"}) + "\n"
            )
            stdout, stderr = proc.communicate(stdin_payload, timeout=300)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = _events(stdout)
        responses = [e["response"] for e in events if e["event"] == "response"]
        assert len(responses) == 40  # every request answered, none dropped
        outcomes = {r["outcome"] for r in responses}
        assert "degraded" in outcomes and "rejected" in outcomes
        for r in responses:
            assert r["tier"] in ("full", "fast", "none")
            if r["tier"] == "fast":
                assert r["degraded"] and r["reason"]
        assert events[-1]["event"] == "drained"
        counters = events[-1]["stats"]["counters"]
        assert counters["submitted"] == 40

    def test_sigterm_during_loaded_run_drains_cleanly(self, tmp_path):
        """SIGTERM mid-burst: exit 0 within the drain deadline, every
        accepted request answered, no orphan workers, no lease left."""
        store = tmp_path / "rs"
        proc = _spawn(SERVE_ARGS + ["--result-store", str(store)], tmp_path)
        try:
            _await_ready(proc)
            burst = subprocess.run(
                [sys.executable, "-m", "repro", *BURST_ARGS],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": SRC}, cwd=str(tmp_path),
            ).stdout
            proc.stdin.write(burst)
            proc.stdin.flush()
            # Wait until the pool is actually loaded before pulling the plug.
            deadline = time.monotonic() + 60
            while not _children(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            workers = _children(proc.pid)
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = _events(stdout)
        assert events[-1]["event"] == "drained"
        responses = [e["response"] for e in events if e["event"] == "response"]
        stats = events[-1]["stats"]
        assert len(responses) == stats["counters"]["submitted"]
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        _assert_all_exit(workers)  # the pool died with the drain
        # Every lease was released: no identity is left wedged for the
        # next front door over this store.
        assert store.is_dir()
        assert not list(store.rglob("*.lease"))

    def test_process_group_sigint_drains_in_flight_work(self, tmp_path):
        """A terminal's Ctrl-C signals the whole process group: the workers
        must survive it so the drain answers in-flight requests in full,
        with no crash recorded against them."""
        proc = _spawn(SERVE_ARGS, tmp_path, start_new_session=True)
        try:
            _await_ready(proc)
            burst = subprocess.run(
                [sys.executable, "-m", "repro", *BURST_ARGS],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": SRC}, cwd=str(tmp_path),
            ).stdout
            proc.stdin.write(burst)
            proc.stdin.flush()
            deadline = time.monotonic() + 60
            while not _children(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            workers = _children(proc.pid)
            assert workers, "worker pool never came up"
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = _events(stdout)
        assert events[-1]["event"] == "drained"
        stats = events[-1]["stats"]
        responses = [e["response"] for e in events if e["event"] == "response"]
        assert len(responses) == stats["counters"]["submitted"]
        assert stats["counters"]["full_failures"] == 0
        assert not [r for r in responses if "crash" in (r.get("reason") or "")]
        assert any(r["tier"] == "full" for r in responses)
        _assert_all_exit(workers)

    def test_bad_input_line_reports_error_and_keeps_serving(self, tmp_path):
        proc = _spawn(["serve", "--workers", "0"], tmp_path)
        try:
            _await_ready(proc)
            stdout, stderr = proc.communicate(
                'this is not json\n{"op": "health"}\n{"op": "shutdown"}\n',
                timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = _events(stdout)
        kinds = [e["event"] for e in events]
        assert "error" in kinds and "health" in kinds
        assert kinds[-1] == "drained"

    def test_malformed_submit_is_rejected_and_server_drains(self, tmp_path):
        """An unknown fault kind is refused at admission; the supervised
        server answers the next request and drains with exit 0."""
        small = {"mix": "mix05", "quanta": 1, "warmup_quanta": 1,
                 "quantum_cycles": 128}
        lines = [{"op": "submit", "request": dict(small, request_id="bad",
                                                   fault_kinds=["bogus"])},
                 {"op": "submit", "request": dict(small, request_id="good")}]
        proc = _spawn(["serve", "--workers", "1", "--drain-deadline", "60"],
                      tmp_path)
        try:
            _await_ready(proc)
            stdout, stderr = proc.communicate(
                "".join(json.dumps(l) + "\n" for l in lines), timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = _events(stdout)
        assert events[-1]["event"] == "drained"
        responses = {e["response"]["request_id"]: e["response"]
                     for e in events if e["event"] == "response"}
        assert responses["bad"]["outcome"] == "rejected"
        assert responses["bad"]["reason"].startswith("invalid-request"), \
            responses["bad"]
        assert responses["good"]["outcome"] == "full"

    def test_default_serve_coalesces_identical_in_flight_requests(
        self, tmp_path
    ):
        """Without ``--shards`` serve still runs the front door: two
        identical requests in flight at once share one simulation."""
        request = {"mix": "mix05", "mode": "adts", "quanta": 1,
                   "warmup_quanta": 1, "quantum_cycles": 128, "seed": 5}
        lines = [{"op": "pause"},
                 {"op": "submit", "request": dict(request, request_id="a")},
                 {"op": "submit", "request": dict(request, request_id="b")},
                 {"op": "resume"}]
        proc = _spawn(["serve", "--workers", "0"], tmp_path)
        try:
            _await_ready(proc)
            stdout, stderr = proc.communicate(
                "".join(json.dumps(l) + "\n" for l in lines), timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, stderr
        events = _events(stdout)
        responses = [e["response"] for e in events if e["event"] == "response"]
        assert sorted(r["request_id"] for r in responses) == ["a", "b"]
        assert all(r["outcome"] == "full" for r in responses)
        assert responses[0]["payload"] == responses[1]["payload"]
        counters = events[-1]["stats"]["counters"]
        assert counters["front_simulations"] == 1
        assert counters["front_coalesced_waiters"] == 1


class TestGridSignalHandling:
    # More cells than workers: after the first children appear there is
    # always queued work left, so the grid cannot race to completion
    # before the signal lands (a 2-cell grid occasionally finished first
    # and exited 0, flaking the 128+signum assertion).
    GRID = ["grid", "--mixes", "mix01,mix02,mix03,mix04,mix05,mix06",
            "--quanta", "8", "--warmup", "1", "--quantum", "512",
            "--workers", "2"]

    @pytest.mark.parametrize("signum,expected", [
        (signal.SIGINT, 130), (signal.SIGTERM, 143)])
    def test_signal_kills_pool_and_exits_distinctly(self, tmp_path, signum,
                                                    expected):
        journal = tmp_path / "grid.jsonl"
        proc = _spawn(self.GRID + ["--journal", str(journal)], tmp_path)
        try:
            deadline = time.monotonic() + 120
            while not _children(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
                assert proc.poll() is None, proc.communicate()[1]
            workers = _children(proc.pid)
            assert workers, "worker pool never came up"
            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == expected, stderr
        assert f"signal {signum}" in stderr
        _assert_all_exit(workers)
        # Journal lock was released on the way out.
        with RunJournal(journal) as j:
            j.load()
            j.record("post-signal", {"ipc": 1.0})

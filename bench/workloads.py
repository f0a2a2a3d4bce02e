"""The benchmark's four workloads.

Each workload drives the program only through its public entry points, the
way a user reaches the paper's mechanism (a detector thread that switches
the fetch policy each quantum):

* ``sim-detailed`` — detailed runs in-process (``run_adts`` / ``run_fixed``);
* ``sweep-grid`` — threshold x heuristic grids (``threshold_type_grid``
  with a journal, in batches under a two-worker ``SupervisedExecutor``);
* ``serve-fresh`` — an open loop of distinct requests through
  ``ShardedService`` (every one a store miss, simulated in a worker);
* ``serve-hot`` — a closed loop over identities already in the result store.

A workload is built from a spec (its sizes), the seed and a scratch
directory. The runner calls :meth:`setup` several times (each call replaces
the state of the previous one), :meth:`phase` once, :meth:`check` on that
phase, then :meth:`close`. Inputs derive from the seed alone; the program
only sees the generated inputs.

Every phase times many short operations, so a run's statistics rest on
dozens to thousands of samples: one simulated quantum, one grid, one
request.
"""

from __future__ import annotations

import gc
import json
import random
import time
from array import array
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.thresholds import ThresholdConfig
from repro.harness import runner, sweep
from repro.harness.executor import ExecutorConfig, SupervisedExecutor
from repro.harness.journal import RunJournal
from repro.service.identity import request_identity
from repro.service.loadgen import TrafficSpec, generate_traffic
from repro.service.request import SimRequest
from repro.service.router import ShardedService
from repro.service.service import ServiceConfig
from repro.storage import fsck_tree

GOLDEN = Path(__file__).with_name("golden.json")

#: Longest a serving phase may run past its schedule before the remaining
#: requests count as failed (keeps a broken service inside the time cap).
OVERRUN_S = 60.0

#: serve-hot samples memory after this many requests (a run makes ~10^5).
HOT_MEMORY_POINT = 10_000

clock = time.perf_counter


def resident_mb() -> float:
    """Anonymous resident memory of this process after a full collection,
    in MB: live heap, without file pages a busy host may evict or cyclic
    garbage not yet collected (from /proc/self/status)."""
    gc.collect()
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no RssAnon in /proc/self/status")


def load_golden(name: str) -> Optional[dict]:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(name)


def normalized(value):
    """``value`` as it reads back from JSON (tuples become lists, keys str)."""
    return json.loads(json.dumps(value, sort_keys=True))


@dataclass
class Phase:
    """One timed phase: what was attempted, how long each operation took."""

    #: Operations done (quanta, grids or requests) and how many failed.
    ops: int
    failed: int
    #: Operation times in seconds, grouped by kind of operation: the four
    #: run types of sim-detailed, one group elsewhere.
    samples: Dict[str, Sequence[float]]
    wall: float
    lateness_max: float
    #: Anonymous resident memory after a fixed amount of the phase's work
    #: (the allocator's high-water mark grows with every operation a fast
    #: host fits in, so a later point would not repeat).
    rss_mb: float
    results: object
    extra: dict = field(default_factory=dict)


#: Seed offset between consecutive rounds (grids) of one run: every round
#: simulates fresh traces, so the work a run times averages over several
#: seeds instead of hanging on one seed's trajectories.
SEED_STRIDE = 104_729


def round_seed(seed: int, k: int) -> int:
    return seed + SEED_STRIDE * k


def _golden_failures(name: str, golden: Optional[dict], seed: int, spec,
                     results) -> List[str]:
    """Exact comparison with the committed values, when they apply."""
    if golden is None or golden.get("seed") != seed or golden.get("spec") != normalized(spec):
        return []
    if normalized(results) != golden["results"]:
        return [f"{name}: results differ from golden.json (seed {seed})"]
    return []


def _payload(r) -> dict:
    """The service's payload shape for one detailed run."""
    return {
        "ipc": r.ipc,
        "switches": r.scheduler.get("switches", 0),
        "benign_probability": r.scheduler.get("benign_probability", 0.0),
    }


# ---------------------------------------------------------------------------
# sim-detailed
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimDetailedSpec:
    #: (mix, mode, heuristic or fixed policy, ipc threshold): mixed ADTS,
    #: fixed ICOUNT, memory-bound (mix03) and homogeneous branchy (mix11).
    runs: Tuple[Tuple[str, str, str, float], ...] = (
        ("mix05", "adts", "type3", 2.0),
        ("mix07", "fixed", "icount", 0.0),
        ("mix03", "adts", "type1", 2.0),
        ("mix11", "adts", "type4", 2.0),
    )
    num_threads: int = 8
    quantum_cycles: int = 2048
    quanta: int = 6
    warmup_quanta: int = 1

    def result_fields(self) -> dict:
        return asdict(self)


class SimDetailed:
    """Rounds of the spec's detailed runs, serially, until time is up.

    One operation is one simulated quantum, timed through the runs'
    ``progress`` callback. A run's first quantum also builds the processor,
    so it is not a sample. The four run types cost different amounts per
    quantum; their samples are kept apart.
    """

    name = "sim-detailed"

    def __init__(self, spec: SimDetailedSpec, seed: int, tmp: Path,
                 golden: Optional[dict] = None) -> None:
        self.spec, self.seed, self.tmp, self.golden = spec, seed, tmp, golden

    def _config(self, mix: str, seed: int, policy: str = "icount") -> runner.RunConfig:
        s = self.spec
        return runner.RunConfig(
            mix=mix, num_threads=s.num_threads, seed=seed,
            quantum_cycles=s.quantum_cycles, quanta=s.quanta,
            warmup_quanta=s.warmup_quanta, policy=policy,
        )

    def _run(self, run, seed: int, progress) -> dict:
        mix, mode, scheduler, threshold = run
        if mode == "adts":
            r = runner.run_adts(self._config(mix, seed), heuristic=scheduler,
                                thresholds=ThresholdConfig(ipc_threshold=threshold),
                                progress=progress)
        else:
            r = runner.run_fixed(self._config(mix, seed, scheduler), progress=progress)
        return {
            "run": list(run),
            "committed": r.committed,
            "cycles": r.cycles,
            "quantum_ipcs": r.quantum_ipcs,
            "switches": r.scheduler.get("switches", 0),
        }

    def setup(self) -> None:
        # Finish lazy imports and first-call work outside the timed phase.
        runner.run_adts(replace(self._config("mix05", self.seed), quantum_cycles=256,
                                quanta=1, warmup_quanta=0))

    def phase(self, seconds: float, rec=None) -> Phase:
        s = self.spec
        samples = {"/".join(map(str, run[:3])): [] for run in s.runs}
        rounds: List[list] = []
        lateness, rss = 0.0, None
        t0 = done = clock()
        end = t0 + seconds
        while True:
            if not rounds or len(rounds[-1]) == len(s.runs):
                rounds.append([])
            run = s.runs[len(rounds[-1])]
            stamps: List[float] = []
            start = clock()
            lateness = max(lateness, start - done)
            rounds[-1].append(self._run(run, round_seed(self.seed, len(rounds) - 1),
                                        lambda _q: stamps.append(clock())))
            done = clock()
            samples["/".join(map(str, run[:3]))].extend(
                b - a for a, b in zip(stamps, stamps[1:]))
            if rss is None and len(rounds[0]) == len(s.runs):
                w = clock()
                rss = resident_mb()
                end += clock() - w
                done = clock()
            if done >= end and len(rounds[0]) == len(s.runs):
                break
        runs = sum(map(len, rounds))
        quanta = runs * (s.quanta + s.warmup_quanta)
        return Phase(
            ops=quanta, failed=0, samples=samples, wall=done - t0,
            lateness_max=lateness, rss_mb=rss, results=rounds[0],
            extra={"rounds": rounds,
                   "sim_cycles_per_s": quanta * s.quantum_cycles / (done - t0)},
        )

    def check(self, phase: Phase) -> List[str]:
        s, rounds = self.spec, phase.extra["rounds"]
        out = []
        for results in rounds:
            for r in results:
                if r["cycles"] != s.quanta * s.quantum_cycles or r["committed"] <= 0:
                    out.append(f"sim-detailed: implausible window for {r['run']}")
        # Any seed: the lockstep batch engine must reproduce a run exactly.
        k = len(rounds) - 1
        i = (self.seed + k) % len(rounds[k])
        mix, mode, scheduler, threshold = s.runs[i]
        config = self._config(mix, round_seed(self.seed, k),
                              scheduler if mode == "fixed" else "icount")
        (batch,) = runner.run_batch([runner.BatchRunSpec(
            config=config, mode=mode, heuristic=scheduler if mode == "adts" else "type3",
            thresholds=ThresholdConfig(ipc_threshold=threshold) if mode == "adts" else None,
        )])
        ref = rounds[k][i]
        if (batch.committed, batch.quantum_ipcs) != (ref["committed"], ref["quantum_ipcs"]):
            out.append(f"sim-detailed: batch engine disagrees on {ref['run']}")
        return out + _golden_failures(self.name, self.golden, self.seed,
                                      s.result_fields(), rounds[0])

    def profile_args(self) -> dict:
        s = self.spec
        return dict(mix="mix05", num_threads=s.num_threads, quantum_cycles=s.quantum_cycles,
                    quanta=4, seed=self.seed, heuristic="type3", threshold=2.0)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGridSpec:
    mixes: Tuple[str, ...] = ("mix05", "mix07")
    thresholds: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    heuristics: Tuple[str, ...] = ("type1", "type2", "type3", "type3g", "type4")
    num_threads: int = 8
    quantum_cycles: int = 512
    quanta: int = 2
    warmup_quanta: int = 1
    batch: int = 25
    workers: int = 2

    def result_fields(self) -> dict:
        out = asdict(self)
        del out["workers"]
        return out


#: Sampled sweep cells re-run serially in-process by the check.
SWEEP_CROSS_CHECKS = 3


class SweepGrid:
    """Whole grids, each with a fresh journal, until time is up; what
    ``repro grid --workers 2 --batch 25`` runs. One operation is one grid."""

    name = "sweep-grid"

    def __init__(self, spec: SweepGridSpec, seed: int, tmp: Path,
                 golden: Optional[dict] = None) -> None:
        self.spec, self.seed, self.tmp, self.golden = spec, seed, tmp, golden
        self.dir = tmp / "grid"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.executor: Optional[SupervisedExecutor] = None

    def setup(self) -> None:
        self.close()
        self.executor = SupervisedExecutor(ExecutorConfig(workers=self.spec.workers))

    @property
    def cells(self) -> int:
        s = self.spec
        return len(s.mixes) * len(s.thresholds) * len(s.heuristics)

    def _base(self, seed: int) -> runner.RunConfig:
        s = self.spec
        return runner.RunConfig(
            num_threads=s.num_threads, seed=seed, quantum_cycles=s.quantum_cycles,
            quanta=s.quanta, warmup_quanta=s.warmup_quanta,
        )

    def phase(self, seconds: float, rec=None) -> Phase:
        s = self.spec
        grids, journals, latencies, lateness, rss = [], [], [], 0.0, None
        t0 = done = clock()
        end = t0 + seconds
        while not grids or done < end:
            journal = RunJournal(self.dir / f"grid-{len(grids)}.jsonl")
            journals.append(journal.path)
            start = clock()
            lateness = max(lateness, start - done)
            r = sweep.threshold_type_grid(
                self._base(round_seed(self.seed, len(grids))), s.mixes,
                s.thresholds, s.heuristics,
                journal=journal, executor=self.executor, batch=s.batch,
            )
            journal.close()
            done = clock()
            latencies.append(done - start)
            grids.append({
                "ipc": {f"{m:g}|{h}|{mix}": v for (m, h, mix), v in sorted(r.per_mix_ipc.items())},
                "switches": {f"{m:g}|{h}": v for (m, h), v in sorted(r.switches.items())},
            })
            if rss is None:
                w = clock()
                rss = resident_mb()
                end += clock() - w
                done = clock()
        return Phase(
            ops=len(latencies), failed=0, samples={"grid": latencies}, wall=done - t0,
            lateness_max=lateness, rss_mb=rss, results=grids[0],
            extra={"grids": grids, "journals": journals},
        )

    def check(self, phase: Phase) -> List[str]:
        s, grids = self.spec, phase.extra["grids"]
        out = [f"sweep-grid: {path.name} holds {n} of {self.cells} cells"
               for path in phase.extra["journals"]
               if (n := RunJournal(path).load()) != self.cells]
        # Any seed: sampled cells re-run serially in-process must match exactly.
        rng = random.Random(self.seed)
        for _ in range(SWEEP_CROSS_CHECKS):
            k = rng.randrange(len(grids))
            m, h, mix = rng.choice(s.thresholds), rng.choice(s.heuristics), rng.choice(s.mixes)
            r = runner.run_adts(replace(self._base(round_seed(self.seed, k)), mix=mix),
                                heuristic=h, thresholds=ThresholdConfig(ipc_threshold=m))
            if r.ipc != grids[k]["ipc"][f"{m:g}|{h}|{mix}"]:
                out.append(f"sweep-grid: grid {k} cell {m:g}/{h}/{mix} differs from a serial run")
        if fsck_tree(self.dir).quarantined:
            out.append("sweep-grid: fsck quarantined journal files")
        return out + _golden_failures(self.name, self.golden, self.seed,
                                      s.result_fields(), grids[0])

    def profile_args(self) -> dict:
        s = self.spec
        return dict(mix="mix05", num_threads=s.num_threads, quantum_cycles=s.quantum_cycles,
                    quanta=s.quanta + s.warmup_quanta, seed=self.seed,
                    heuristic="type3", threshold=2.0)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
            self.executor = None


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    mix: str = "mix05"
    quanta: int = 2
    warmup_quanta: int = 0
    quantum_cycles: int = 512
    num_threads: int = 4
    shards: int = 2
    workers: int = 1
    queue_capacity: int = 64
    verify_rate: float = 0.1
    #: serve-fresh: open-loop arrival rate, and requests re-simulated
    #: in-process afterwards.
    rate_per_s: float = 8.0
    resim_samples: int = 10
    #: serve-hot: identities stored during set-up, and distinct request
    #: ids per identity in the caller's pool.
    hot_identities: int = 64
    pool_copies: int = 16


class _Serving:
    """State shared by both serving workloads: one service per set-up."""

    def __init__(self, spec: ServeSpec, seed: int, tmp: Path,
                 golden: Optional[dict] = None) -> None:
        self.spec, self.seed, self.tmp, self.golden = spec, seed, tmp, golden
        self.service: Optional[ShardedService] = None
        self.stores: List[Path] = []

    def _new_service(self) -> ShardedService:
        self.close()
        s = self.spec
        store = self.tmp / f"store-{len(self.stores)}"
        self.stores.append(store)
        self.service = ShardedService(
            ServiceConfig(workers=s.workers, queue_capacity=s.queue_capacity),
            shards=s.shards, store=store, verify_rate=s.verify_rate,
            verify_seed=self.seed,
        )
        return self.service

    def _resim_failures(self, requests, payloads: Dict[str, dict]) -> List[str]:
        """Re-simulate sampled requests in-process; payloads must match."""
        rng = random.Random(self.seed)
        sample = rng.sample(list(requests), min(self.spec.resim_samples, len(requests)))
        out = []
        for req in sample:
            r = runner.run_adts(req.run_config(), heuristic=req.heuristic,
                                thresholds=ThresholdConfig(ipc_threshold=req.threshold))
            if _payload(r) != payloads.get(request_identity(req)):
                out.append(f"{self.name}: {req.request_id} differs from an in-process run")
        return out

    def _service_failures(self) -> List[str]:
        out = []
        if self.service is not None:
            self.service.drain()
            if not self.service.verification_audit()["ok"]:
                out.append(f"{self.name}: verification audit failed")
        for store in self.stores:
            if store.is_dir() and fsck_tree(store).quarantined:
                out.append(f"{self.name}: fsck quarantined files in {store.name}")
        return out

    def profile_args(self) -> dict:
        s = self.spec
        return dict(mix=s.mix, num_threads=s.num_threads, quantum_cycles=s.quantum_cycles,
                    quanta=8, seed=self.seed, heuristic="type3", threshold=2.0)

    def close(self) -> None:
        if self.service is not None:
            self.service.drain()
            self.service = None


class ServeFresh(_Serving):
    """Open loop: requests sent on a seeded uniform schedule regardless of
    progress; latency runs from each request's due time."""

    name = "serve-fresh"

    def setup(self) -> None:
        self._new_service()

    def _traffic(self, n: int, seconds: float):
        """``n`` uniform arrivals over ``seconds``, every identity distinct."""
        s = self.spec
        events = generate_traffic(TrafficSpec(
            shape="uniform", requests=n, duration_s=seconds, seed=self.seed,
            mixes=(s.mix,), degradable_fraction=0.0, deadline_fraction=0.0,
            expired_fraction=0.0, quanta=s.quanta, warmup_quanta=s.warmup_quanta,
            quantum_cycles=s.quantum_cycles, num_threads=s.num_threads,
        ))
        used, out = set(), []
        for e in events:
            sim_seed = e.request.seed
            while sim_seed in used:
                sim_seed = (sim_seed + 1) % (1 << 16)
            used.add(sim_seed)
            out.append(replace(e, request=replace(e.request, seed=sim_seed)))
        return out

    def phase(self, seconds: float, rec=None) -> Phase:
        s, svc = self.spec, self.service
        n = max(1, round(s.rate_per_s * seconds))
        events = self._traffic(n, seconds)
        due: Dict[str, float] = {}
        answered: Dict[str, float] = {}
        responses = []
        lateness, i = 0.0, 0
        t0 = clock()
        give_up = t0 + seconds + OVERRUN_S
        while i < n or svc.pending:
            now = clock()
            while i < n and t0 + events[i].at_s <= now:
                rid = events[i].request.request_id
                due[rid] = t0 + events[i].at_s
                lateness = max(lateness, clock() - due[rid])
                svc.submit(events[i].request)
                i += 1
            svc.pump()
            for r in svc.take_completed():
                answered.setdefault(r.request_id, clock())
                responses.append(r)
            if now > give_up:
                break
            wake = t0 + events[i].at_s if i < n else now + 0.001
            pause = min(0.001, max(0.0, wake - clock()))
            if pause > 0:
                if rec is not None:
                    j = rec.begin("loadgen.idle")
                    time.sleep(pause)
                    rec.end(j)
                else:
                    time.sleep(pause)
        latencies = [answered[rid] - due[rid] for rid in due if rid in answered]
        full = [r for r in responses if r.outcome == "full"]
        by_request = {e.request.request_id: e.request for e in events}
        return Phase(
            ops=n,
            failed=n - len({r.request_id for r in full}) + (len(responses) - len(set(answered))),
            samples={"request": latencies},
            wall=max(answered.values(), default=clock()) - t0,
            lateness_max=lateness, rss_mb=resident_mb(),
            results={request_identity(by_request[r.request_id]): r.payload for r in full},
            extra={"requests": [e.request for e in events], "due": due, "answered": answered},
        )

    def check(self, phase: Phase) -> List[str]:
        out = []
        if phase.failed:
            out.append(f"serve-fresh: {phase.failed} request(s) without exactly one full answer")
        out += self._resim_failures(phase.extra["requests"], phase.results)
        return out + self._service_failures()


class ServeHot(_Serving):
    """Closed loop, one caller: each request is sent when the previous one
    is answered; every identity is already in the result store."""

    name = "serve-hot"

    def setup(self) -> None:
        s = self.spec
        svc = self._new_service()
        seeds = random.Random(self.seed).sample(range(1 << 16), s.hot_identities)
        warm = [
            SimRequest(
                request_id=f"warm-{k}", client=f"c{k % 4}", mix=s.mix, quanta=s.quanta,
                warmup_quanta=s.warmup_quanta, quantum_cycles=s.quantum_cycles,
                num_threads=s.num_threads, seed=sd, degradable=False,
            )
            for k, sd in enumerate(seeds)
        ]
        for req in warm:
            svc.submit(req)
        while svc.pending:
            svc.pump()
            time.sleep(0.001)
        answers = {r.request_id: r for r in svc.take_completed()}
        self.warm = {}
        for req in warm:
            r = answers.get(req.request_id)
            if r is None or r.outcome != "full":
                raise RuntimeError(f"serve-hot set-up: {req.request_id} not stored")
            self.warm[request_identity(req)] = r.payload
        self.warm_requests = warm
        self.pool = [
            (replace(req, request_id=f"hot-{k}-{j}", client=f"c{j % 4}"),
             self.warm[request_identity(req)])
            for k, req in enumerate(warm) for j in range(s.pool_copies)
        ]
        rng = random.Random(self.seed + 1)
        self.order = [rng.randrange(len(self.pool)) for _ in range(1 << 16)]

    def phase(self, seconds: float, rec=None) -> Phase:
        svc, pool, order = self.service, self.pool, self.order
        mask = len(order) - 1
        latencies = array("f")  # compact: a run answers ~10^5 requests
        lateness, bad, n, rss = 0.0, 0, 0, None
        t0 = clock()
        done, end = t0, t0 + seconds
        while done < end:
            request, expected = pool[order[n & mask]]
            start = clock()
            response = svc.submit(request)
            answers = svc.take_completed()
            stop = clock()
            if start - done > lateness:
                lateness = start - done
            latencies.append(stop - start)
            if (response is None or len(answers) != 1 or answers[0] is not response
                    or response.outcome != "full" or response.payload != expected):
                bad += 1
            done = stop
            n += 1
            if n == HOT_MEMORY_POINT:
                w = clock()
                rss = resident_mb()
                end += clock() - w
                done = clock()
        return Phase(
            ops=n, failed=bad, samples={"request": latencies}, wall=done - t0,
            lateness_max=lateness, rss_mb=rss if rss is not None else resident_mb(),
            results=dict(sorted(self.warm.items())),
        )

    def check(self, phase: Phase) -> List[str]:
        out = []
        if phase.failed:
            out.append(f"serve-hot: {phase.failed} answer(s) missing or unlike the warm-up")
        return out + self._resim_failures(self.warm_requests, self.warm) + self._service_failures()


WORKLOADS = {
    "sim-detailed": (SimDetailed, SimDetailedSpec),
    "sweep-grid": (SweepGrid, SweepGridSpec),
    "serve-fresh": (ServeFresh, ServeSpec),
    "serve-hot": (ServeHot, ServeSpec),
}


def make(name: str, seed: int, tmp: Path, spec=None, golden: Optional[dict] = None):
    """Build workload ``name``; ``spec`` defaults to the benchmark's sizes
    and ``golden`` to the committed values in golden.json."""
    cls, spec_cls = WORKLOADS[name]
    return cls(spec if spec is not None else spec_cls(), seed, tmp,
               golden if golden is not None else load_golden(name))

"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload sim-detailed --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it carries the workload's ``results_digest``, sample counts and ungated
statistics. Exit code 0 means every correctness gate passed; 1 means one
failed; 2 means the program could not be found or imported from this
checkout.

``--trace 1`` runs the timed phase with tracing wrappers installed; the
end-to-end numbers come only from untraced runs. ``--report PATH`` merges
this run's full report (per-layer table, request breakdown) into the JSON
document at PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: Taken before the program is imported: set-up time starts here.
ENTRY = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sim-detailed", "sweep-grid", "serve-fresh", "serve-hot")

#: Set-ups per run; ``setup_s`` takes their median.
SETUPS = 3

#: End-to-end metric -> unit. Operation times are printed on the detail
#: line but not gated: see "Why no time metric is gated" in README.md.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 10) - 1]


def tail(values) -> dict:
    """The highest of the 90th, 95th, 99th and 99.9th percentiles that has
    at least ten samples beyond it (the 50th when none has)."""
    n = len(values)
    permille = max((p for p in (900, 950, 990, 999) if n * (1000 - p) >= 10_000),
                   default=500)
    return {"percentile": permille / 10, "ms": percentile(values, permille / 10) * 1e3,
            "beyond": n * (1000 - permille) // 1000}


def children_peak_mb() -> float:
    """Largest resident set of any reaped child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def grouped_ms(samples, q: float) -> float:
    """The q-th percentile of each group of like operations, averaged, in ms."""
    return statistics.mean(percentile(v, q) for v in samples.values()) * 1e3


def end_to_end(phase, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": max(phase.rss_mb, children_peak_mb()),
    }


def execute(workload, seconds: float, traced: bool, spool: Path, import_s: float = 0.0):
    """Set up, run the timed phase and the gates; returns (result, report)."""
    from bench import layers
    from bench import trace as tr

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    report = {}
    if traced:
        rec = tr.Recorder()
        spool.mkdir(parents=True, exist_ok=True)
        with layers.Instrumentation(rec, spool) as inst:
            root = rec.begin("phase")
            phase = workload.phase(seconds, rec)
            rec.end(root)
        spans, aggs, counts = inst.collect()
        main, worker = layers.partitions(spans, aggs, rec.gid(root))
        metrics = layers.layer_metrics(spans, aggs, counts, main, worker,
                                       max(1, phase.ops - phase.failed))
        metrics.update(layers.stage_profile(**workload.profile_args()))
        metrics["trace.overhead_share"] = layers.overhead_share(spans, aggs, rec.gid(root))
        metrics["loadgen.lateness_ms_max"] = phase.lateness_max * 1e3
        report["per_layer"] = metrics
        report["layers"] = layers.layer_table(spans, aggs, main, worker)
        if "due" in phase.extra:
            report["requests"] = layers.request_breakdown(
                spans, phase.extra["due"], phase.extra["answered"])
    else:
        phase = workload.phase(seconds)
        metrics = {}
        if phase.ops > phase.failed:
            metrics = end_to_end(phase, import_s + statistics.median(setup_times))
        report["end_to_end"] = metrics
    failures = workload.check(phase)
    units = layers.PER_LAYER_UNITS if traced else END_TO_END_UNITS
    result = {
        "correct": not failures and phase.failed == 0,
        "attempted": phase.ops,
        "failed": phase.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    samples = [x for v in phase.samples.values() for x in v]
    report.update({
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "results_digest": digest(phase.results),
        "samples": len(samples),
        "ops_per_s": (phase.ops - phase.failed) / phase.wall,
        "wall_s": phase.wall,
        "checks": failures or "ok",
        **({"sim_cycles_per_s": phase.extra["sim_cycles_per_s"]}
           if "sim_cycles_per_s" in phase.extra else {}),
    })
    if samples:
        report["op_p50_ms"] = grouped_ms(phase.samples, 50)
        report["op_tail"] = tail(samples)
    return result, report


def merge_report(path: Path, report: dict) -> None:
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    doc.setdefault("host", {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    })
    doc.setdefault("workloads", {})[report["workload"]] = report
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"bench: repro was imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # The benchmark writes only inside the checkout, and measures detailed
    # runs without a trace cache.
    os.environ.pop("REPRO_TRACE_CACHE", None)
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    saved_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)

    from bench import workloads

    import_s = time.perf_counter() - ENTRY
    workload = None
    try:
        (tmp / "work").mkdir()
        workload = workloads.make(args.workload, args.seed, tmp / "work")
        result, report = execute(workload, args.seconds, bool(args.trace), tmp / "spool",
                                 import_s)
    finally:
        if workload is not None:
            workload.close()
        tempfile.tempdir = None
        if saved_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    if args.report is not None:
        merge_report(args.report, report)
    print(json.dumps({k: report.get(k) for k in (
        "workload", "seed", "results_digest", "samples", "op_p50_ms", "op_tail",
        "ops_per_s", "wall_s", "checks")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Import this directory as the ``bench`` package, never as top-level
    # modules: bench/trace.py would shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)
    sys.exit(main())

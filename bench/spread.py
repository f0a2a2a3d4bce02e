"""Repeat the benchmark and report how much each metric moves between runs.

    python3 bench/spread.py --runs 10 --sets 2

Each set runs every workload ``--runs`` times with seeds 0..runs-1, in
alternating order (forward, then backward) so a drifting host spreads over
all workloads alike. For every end-to-end metric it prints the median,
quartiles (``statistics.quantiles(values, n=4)``) and the relative spread
(quartile distance / median) next to the metric's bound in BENCHMARK.json;
the operation times the detail line prints, which are not gated, get the
same rows with no bound. With two or more sets, each later set's median is
compared with the first set's: the change in the metric's worse direction
must stay within the bound. Runs with the same seed must report the same
``results_digest``. Exits 1 when any run fails or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Ungated statistics from the detail line, reported beside the metrics.
PRINTED = {
    "op_p50_ms": lambda d: d["op_p50_ms"],
    "op_tail_ms": lambda d: d["op_tail"]["ms"],
}


def run_once(command, workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    metrics.update({k: {"better": "lower", "bound": None} for k in PRINTED})

    # values[set][workload][metric] -> list; digests[workload][seed] -> set
    values = [{w: {m: [] for m in metrics} for w in chosen} for _ in range(args.sets)]
    digests = {w: {} for w in chosen}
    ok = True
    for s in range(args.sets):
        for seed in range(args.runs):
            order = chosen if seed % 2 == 0 else chosen[::-1]
            for w in order:
                detail, result = run_once(bench["command"], w, seed, bench["run_seconds"])
                if result is None or not result["correct"]:
                    print(f"set {s} {w} seed {seed}: FAILED", file=sys.stderr)
                    ok = False
                    continue
                digests[w].setdefault(seed, set()).add(detail["results_digest"])
                for m, v in result["metrics"].items():
                    values[s][w][m].append(v["value"])
                for m, get in PRINTED.items():
                    values[s][w][m].append(get(detail))
                print(f"set {s} {w} seed {seed}: ok", file=sys.stderr)

    print("| workload | metric | median | q1 | q3 | spread | bound |"
          + "".join(f" set {s} vs 0 |" for s in range(1, args.sets)))
    print("|---|---|---|---|---|---|---|" + "---|" * (args.sets - 1))
    for w in chosen:
        for m, spec in metrics.items():
            base = values[0][w][m]
            if len(base) < 2:
                continue
            med, q1, q3, rel = spread(base)
            bound = spec["bound"]
            row = (f"| {w} | {m} | {med:.4g} | {q1:.4g} | {q3:.4g} | {rel:.1%} | "
                   f"{'not gated' if bound is None else f'{bound:.0%}'} |")
            for s in range(1, args.sets):
                later = values[s][w][m]
                if not later:
                    row += " n/a |"
                    continue
                change = statistics.median(later) / med - 1.0
                worse = change if spec["better"] == "lower" else -change
                over = bound is not None and worse > bound
                row += f" {worse:+.1%} worse{' (over bound)' if over else ''} |"
            print(row)
    for w in chosen:
        for seed, seen in sorted(digests[w].items()):
            if len(seen) > 1:
                print(f"{w} seed {seed}: results_digest differs between sets", file=sys.stderr)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

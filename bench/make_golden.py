"""Rewrite golden.json: the seed-0 results of sim-detailed and sweep-grid.

    PYTHONPATH=src python3 -m bench.make_golden

Run it only for a change meant to alter simulated results, and say so in
that change; the benchmark fails any seed-0 run that disagrees with the
file.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from bench import workloads


def main() -> None:
    tmp = Path(__file__).resolve().parent.parent / ".bench_tmp" / "golden"
    tmp.mkdir(parents=True, exist_ok=True)
    doc = {}
    try:
        for name in ("sim-detailed", "sweep-grid"):
            workload = workloads.make(name, 0, tmp, golden={})
            try:
                workload.setup()
                phase = workload.phase(0.0)  # one round / one grid
            finally:
                workload.close()
            doc[name] = {
                "seed": 0,
                "spec": workloads.normalized(workload.spec.result_fields()),
                "results": workloads.normalized(phase.results),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


if __name__ == "__main__":
    main()

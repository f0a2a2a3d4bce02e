"""The benchmark's contract: names, smoke runs of every workload, gates."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, workloads
from bench.workloads import ServeSpec, SimDetailedSpec, SweepGridSpec

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Shrunken specs: same code paths as the benchmark, seconds not minutes.
SMALL = {
    "sim-detailed": SimDetailedSpec(
        runs=(("mix05", "adts", "type3", 2.0), ("mix07", "fixed", "icount", 0.0)),
        num_threads=4, quantum_cycles=256, quanta=2, warmup_quanta=1,
    ),
    "sweep-grid": SweepGridSpec(
        mixes=("mix05",), thresholds=(1.0, 2.0), heuristics=("type1", "type3"),
        num_threads=4, quantum_cycles=256, quanta=2, warmup_quanta=1, batch=2,
    ),
    "serve-fresh": ServeSpec(quanta=1, quantum_cycles=256, rate_per_s=20.0,
                             resim_samples=2),
    "serve-hot": ServeSpec(quanta=1, quantum_cycles=256, hot_identities=4,
                           pool_copies=2, resim_samples=2),
}


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_every_metric_named_in_benchmark_json(name, traced, tmp_path):
    workload = workloads.make(name, 3, tmp_path / "work", spec=SMALL[name])
    try:
        result, report = run.execute(workload, 0.3, traced, tmp_path / "spool")
    finally:
        workload.close()
    assert result["correct"], report["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert len(report["results_digest"]) == 64
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if not traced:
        assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        assert set(units) == set(run.END_TO_END_UNITS)
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    main_lane = [v["value"] for k, v in result["metrics"].items()
                 if k.endswith("share") and not k.startswith(("worker.", "smt.", "trace."))
                 and k != "verify.extra_sim_share"]
    assert sum(main_lane) == pytest.approx(1.0, abs=0.01)
    assert 0 < result["metrics"]["trace.overhead_share"]["value"] < 1


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([1.0] * 99)["percentile"] == 50
    assert run.tail([1.0] * 100)["percentile"] == 90
    assert run.tail([1.0] * 10_000)["percentile"] == 99.9
    values = [float(i) for i in range(1, 1001)]
    assert run.percentile(values, 50) == pytest.approx(500.5)
    assert run.percentile(values, 99.9) == pytest.approx(999.001)


def test_tampered_golden_fails_the_command(tmp_path, monkeypatch, capsys):
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))
    golden["sim-detailed"]["results"][0]["committed"] += 1
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(workloads, "GOLDEN", tampered)
    code = run.main(["--workload", "sim-detailed", "--seed", "0", "--seconds", "0.1"])
    detail, result = [json.loads(x) for x in capsys.readouterr().out.splitlines()[-2:]]
    assert code == 1
    assert result["correct"] is False
    assert any("golden" in c for c in detail["checks"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "sim-detailed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""

"""The benchmark's own test: every workload briefly, untraced and traced.

    python3 -m pytest perfbench/test_perfbench.py

Each workload must answer correctly, print exactly the metric names and
units of BENCHMARK.json, and give the same counts on two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    assert out["failed"] == 0 and out["correct"], proc.stderr
    return out


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_reports_its_metrics(workload):
    plain = result(workload, seed=3, trace=0)
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = [result(workload, seed=1, trace=1) for _ in range(2)]
    per_layer = units(SPEC["per_layer"])
    counts = []
    for out in traced:
        assert {k: v["unit"] for k, v in out["metrics"].items()} == per_layer
        counts.append({k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], seed=0, trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""

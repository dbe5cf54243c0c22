"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload once, traced and untraced, and checks that each
metric BENCHMARK.json declares is printed by name with its unit, that the
last line follows the result format, and that the benchmark refuses to
run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_units(stdout: str) -> dict[str, str]:
    """name -> unit from the human-readable `name value unit` lines."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload):
    done = run_bench(ROOT, workload, trace=1)
    assert done.returncode == 0, done.stderr
    units = printed_units(done.stdout)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
    assert units["ops_failed_ratio"] == "ratio"
    assert "env {" in done.stdout

    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_untraced_run_reports_end_to_end_metrics():
    done = run_bench(ROOT, "score-many", trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], trace=0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Toy-size smoke test of the benchmark: every workload runs, emits every
metric it declares, and passes its own output checks."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench_spec  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in bench_spec.WORKLOADS])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--size", "toy",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    declared = bench_spec.PER_LAYER if trace else bench_spec.END_TO_END
    assert {m[0]: m[1] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == (
        bench_spec.render_benchmark_json()
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "_work", "_out"
    ))
    proc = _run(tmp_path, "--workload", "ingest_score", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()

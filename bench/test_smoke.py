"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest bench/test_smoke.py

Every workload must run with no failed answer, traced and untraced, and the
traced repeats must print the same output, byte for byte, as the untraced
ones.  Without redld's sources the benchmark must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent


def bench(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), "--smoke", "--seconds", "0", *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["solve", "sat", "grid", "sweep"])
def test_traced_and_untraced_answers_hold_and_match(workload, tmp_path):
    out = tmp_path / "record.json"
    proc = bench(BENCH / "run.py", "--workload", workload, "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
    record = json.loads(out.read_text())
    assert record["outputs"]["traced"] == record["outputs"]["untraced"]
    assert "kernels.bnb.nodes" in result["metrics"]
    assert result["metrics"]["trace.overhead_frac"]["unit"] == "fraction"


def test_untraced_run_prints_end_to_end_metrics():
    proc = bench(BENCH / "run.py", "--workload", "grid", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path / "bench" / "run.py", "--workload", "solve")
    assert proc.returncode != 0
    assert proc.stdout == ""

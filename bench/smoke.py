"""Smoke test of the benchmark itself: each workload once, untraced and traced.

    python3 -m pytest bench/smoke.py

Kept out of the default test collection (its name does not match test_*.py)
because it takes a few minutes.  It checks that every end-to-end metric is
printed by name with its unit, that no operation fails, and that the traced
run reports every per-layer metric and writes its spans.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_once(workload):
    lines, result = run(workload, 0)
    assert result["failed"] == 0 and result["correct"], lines
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line.split() for line in lines[:-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    lines, result = run(workload, 1)
    assert result["failed"] == 0 and result["correct"], lines
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    spans = json.loads((BENCH / "results"
                        / f"{workload}-seed7-trace1-spans.json").read_text())
    roots = {span["name"] for span in spans if span["parent"] is None}
    assert {f"op.{kind}" for kind in WORKLOADS[workload]} <= roots

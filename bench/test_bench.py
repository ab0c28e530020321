"""Smoke test of the benchmark: every workload at its smoke size, untraced
and traced, prints the metrics BENCHMARK.json names and passes its checks.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], result
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for metric in names:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # only the non-finite signal_csv operation of transforms-groups fails,
    # once per pass
    per_pass = {"quantize-operators": 20, "stellar-portraits": 27,
                "transforms-groups": 15}[workload]
    expected_failed = 1 if workload == "transforms-groups" else 0
    assert result["attempted"] % per_pass == 0
    assert result["failed"] * per_pass == expected_failed * result["attempted"]

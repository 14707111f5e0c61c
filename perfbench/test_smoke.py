"""Smoke check of the benchmark harness itself.

Runs every workload at the tiny "smoke" size, traced and untraced, and checks
that the result line carries exactly the metrics BENCHMARK.json names, each
with its unit, that every output check passed, and that each traced layer is
reached by some workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The smoke oracle's graphs have clique-width at most 4.
NEVER_REACHED = re.compile(r"cwexact\.cliquewidth_at_most\.k[5-8]\.")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert f"{workload} {m['name']} = " in proc.stdout
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, m["name"]
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    run(workload, 0)


def test_every_layer_is_traced():
    reached = set()
    for workload in WORKLOADS:
        metrics = run(workload, 1)
        reached |= {name for name, value in metrics.items() if value["value"] > 0}
    calls = {m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
    missing = {name for name in calls - reached if not NEVER_REACHED.match(name)}
    assert not missing, missing

"""Smoke test of the benchmark: one operation per workload, both modes.

    python3 -m pytest benchmark/test_smoke.py

Each case runs one command (or one curve) and checks that the result line
has the contract's keys and names every metric of BENCHMARK.json with
its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def _run(run_py, *args):
    return subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = _run(HERE / "run.py", "--workload", workload, "--seed", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert any(line.startswith("fail_ratio 0.0 ") for line in lines)


def test_refuses_to_run_without_the_package():
    bare = HERE.parent / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = _run(bare / HERE.name / "run.py", "--workload", WORKLOADS[0],
                "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_listed_workloads_are_the_known_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

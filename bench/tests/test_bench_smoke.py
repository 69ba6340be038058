"""Smoke test of the benchmark harness on tiny configs.

    python3 -m pytest bench/tests -q

Every workload runs for a few epochs of a tiny model, untraced and
traced, and must print every metric that BENCHMARK.json declares, with
the declared unit, and pass its output checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny",
    ]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    prefix = "layer" if trace else "metric"
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
        report = [ln for ln in lines if ln.startswith(f"{prefix} {metric['name']} ")]
        assert len(report) == 1 and report[0].endswith(f" {metric['unit']}"), metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    """Only the benchmark's own files: no result and a non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    done = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

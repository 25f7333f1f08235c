"""Smoke test of the benchmark itself: every workload, a couple of ops, small inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced at the ``smoke`` profile; the test
asserts that the result line names every metric of ``BENCHMARK.json`` with
its unit and that no answer failed (``failed_ratio`` is 0).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--profile", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert info["workload"] == workload and info["seed"] == 3
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == expected
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], float)
        if trace:
            assert result["metrics"]["failed_ratio"]["value"] == 0.0
        else:
            for name in expected:
                assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    """Without ``src/`` beside it the benchmark exits non-zero, printing no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

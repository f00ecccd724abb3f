"""Each benchmark workload still sets up against the library.

A workload's set-up imports the package, builds its inputs and warms up by
calling the library names ``bench/`` uses, so a change that drops or renames
one of them fails here instead of in a benchmark run.  The worker writes
only a scratch directory under the gitignored ``.bench_out/`` and removes it.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_the_four_workloads_are_declared():
    assert WORKLOADS == ["verify-box", "forbidden-atlas", "scan-online", "scan-cached"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sets_up(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "setup_s" in json.loads(result.stdout.splitlines()[-1])

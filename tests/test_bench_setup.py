"""Each benchmark workload still sets up against the library, and its quick self-checks pass.

A workload's set-up imports the package, builds its inputs and warms up by
calling the library names ``bench/`` uses, so a change that drops or renames
one of them fails here instead of in a benchmark run.  The worker writes
only a scratch directory under the gitignored ``.bench_out/`` and removes it.
The quick self-checks of ``bench/checks/check_bench.py`` hold the library to
the benchmark's pinned figures, so a change that moves one fails here too.
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


def test_benchmark_quick_self_checks_pass():
    # The benchmark's own checks of its fakes and oracles against the library (such as the
    # 4,848 requests of an uncached scan at (10, 2000)); check_wrappers runs whole workloads.
    code = (
        "import check_bench\n"
        "for check in (check_bench.check_empty_transport, check_bench.check_fake_data, check_bench.check_oracles):\n"
        "    check()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "bench" / "checks", capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr

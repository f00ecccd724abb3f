"""The CI workflow parses as YAML and runs the tier-1 command on both Pythons.

GitHub cannot start a workflow whose file does not parse, so a broken file
shows no failing run; this check lives in the suite for that reason.
"""
from __future__ import annotations

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def load_job():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    return workflow["jobs"]["tier1"]


def test_tier1_step_runs_the_roadmap_command_verbatim():
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    steps = {step.get("name"): step for step in load_job()["steps"]}
    assert steps["Tier-1 tests"]["run"] == command


def test_matrix_is_python_3_10_and_3_11():
    assert load_job()["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]

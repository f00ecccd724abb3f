"""The CI workflow parses as YAML and runs the tier-1 command on both Pythons.

GitHub cannot start a workflow whose file does not parse, so a broken file
shows no failing run; this check lives in the suite for that reason.
"""
from __future__ import annotations

import ast
import importlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from rmbounds import cli
from test_verify import RUN_ALL_2000_150

ROOT = Path(__file__).resolve().parent.parent


def load_job():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    return workflow["jobs"]["tier1"]


def test_tier1_step_runs_the_roadmap_command_verbatim():
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    steps = {step.get("name"): step for step in load_job()["steps"]}
    assert steps["Tier-1 tests"]["run"] == command


def test_no_dependency_step_runs_right_after_the_install():
    steps = load_job()["steps"]
    names = [step.get("name") for step in steps]
    at = names.index("Install the package with its test extras") + 1
    assert names[at] == "Installed package declares no runtime dependency"
    python, flag, script = shlex.split(steps[at]["run"])
    assert (python, flag) == ("python", "-c") and "requires('rmbounds')" in script
    compile(script, names[at], "exec")


# The benchmark smoke step as (runner ARGS, SCRIPT reading the runner's last line).
BENCH_SMOKE = re.compile(r'python3 bench/run\.py (.+) \| tail -n 1 \| python -c (".*")', re.S)


def test_benchmark_smoke_step_runs_after_the_harness_checks(tmp_path):
    """The step's assertion is compiled and fed runner last lines; the benchmark itself is not run here."""
    steps = load_job()["steps"]
    names = [step.get("name") for step in steps]
    at = names.index("Benchmark harness checks") + 1
    assert names[at] == "Benchmark smoke"
    args, script = BENCH_SMOKE.fullmatch(steps[at]["run"].strip()).groups()
    assert shlex.split(args) == ["--workload", "all", "--seed", "2", "--seconds", "1"]
    script = shlex.split(script)[0]
    compile(script, names[at], "exec")
    for correct, failed, passes in ((True, 0, True), (False, 0, False), (True, 1, False)):
        last = json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {}})
        result = subprocess.run(
            [sys.executable, "-c", script], input=last, cwd=tmp_path, capture_output=True, text=True, timeout=60
        )
        assert (result.returncode == 0) == passes, (last, result.stderr)


def test_matrix_is_python_3_10_and_3_11():
    assert load_job()["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]


SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_source_parses_as_python_3_10(path):
    """Stands in for the matrix's 3.10 leg, which this suite does not run.

    It checks grammar only: a newer stdlib API used from a 3.10-valid
    statement still passes here.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# CI steps of the form `rmbounds ARGS | grep -F "TEXT"`, as (step name, ARGS, TEXT).
GREP_STEP = re.compile(r'rmbounds (.+) \| grep -F "([^"]+)"')
GREP_STEPS = [
    (step["name"], *match.groups())
    for step in load_job()["steps"]
    if (match := GREP_STEP.fullmatch(step.get("run", "").strip()))
]


def test_every_cli_smoke_step_is_checked():
    commands = [shlex.split(args)[0] for _, args, _ in GREP_STEPS]
    assert commands == ["bound"]


@pytest.mark.parametrize("name, args, text", GREP_STEPS, ids=[name for name, _, _ in GREP_STEPS])
def test_cli_smoke_step_passes_from_the_checkout(capsys, name, args, text):
    assert cli.main(shlex.split(args)) == 0
    assert text in capsys.readouterr().out


# CI steps of the form `rmbounds ARGS | python -c "SCRIPT"`, as (step name, ARGS, SCRIPT).
PIPE_STEP = re.compile(r'rmbounds (.+?) \| python -c "(.*)"', re.DOTALL)
PIPE_STEPS = [
    (step["name"], *match.groups())
    for step in load_job()["steps"]
    if (match := PIPE_STEP.fullmatch(step.get("run", "").strip()))
]


def test_every_json_pipe_step_is_checked():
    assert [shlex.split(args)[0] for _, args, _ in PIPE_STEPS] == ["forbidden", "table", "verify"]


def test_verify_pipe_step_expects_the_pinned_case_counts():
    """The step runs outside the checkout, so it states the counts itself; they must be the suite's."""
    (script,) = [script for _, args, script in PIPE_STEPS if shlex.split(args)[0] == "verify"]
    expected = ast.literal_eval(re.search(r"expected = (\[[^]]*\])", script).group(1))
    assert expected == [cases for _, cases in RUN_ALL_2000_150] and sum(expected) == 259436


@pytest.mark.parametrize("name, args, script", PIPE_STEPS, ids=[name for name, _, _ in PIPE_STEPS])
def test_json_pipe_step_passes_from_the_checkout(capsys, monkeypatch, name, args, script):
    assert cli.main(shlex.split(args)) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    exec(compile(script, name, "exec"), {})


def test_cache_round_trip_step_passes_from_a_scratch_directory(tmp_path, monkeypatch):
    """The step's script, split as the shell splits it, run in an empty directory against the checkout."""
    (step,) = [step for step in load_job()["steps"] if step.get("name") == "Installed cache round trip"]
    assert step["working-directory"] == "${{ runner.temp }}"
    python, flag, script = shlex.split(step["run"])
    assert (python, flag) == ("python", "-c") and "\\u00e9" in script and "\\U0001f600" in script
    monkeypatch.chdir(tmp_path)
    exec(compile(script, step["name"], "exec"), {})
    assert [path.name for path in tmp_path.iterdir()] == ["rmbounds-cache-round-trip.jsonl"]


def test_installed_suite_step_runs_the_checkout_tests_from_outside_it():
    steps = load_job()["steps"]
    names = [step.get("name") for step in steps]
    at = names.index("Tier-1 tests against the installed package")
    assert names.index("Install the package with its test extras") < at
    step = steps[at]
    assert step["working-directory"] == "${{ runner.temp }}"
    assert "PYTHONPATH" not in json.dumps(step) and "env" not in load_job()
    *command, tests = shlex.split(step["run"])
    assert command[:3] == ["python", "-m", "pytest"]
    assert Path(tests.replace("$GITHUB_WORKSPACE", str(ROOT))) == ROOT / "tests"


# README's statements of a limit, such as `arith.PMAX_LIMIT` = 10**7 or `bounds.GRID_LIMIT` = 800,000.
README_LIMIT = re.compile(r"`(\w+)\.([A-Z_]+)`\s*=\s*(\d(?:,?\d)*)(?:\*\*(\d+))?")


# README's sentence naming a COMMANDS row's fields, each in backticks, in order.
README_ROW = re.compile(r"Each subcommand is one row of `cli\.COMMANDS`:(.*?)\.\s", re.DOTALL)


def test_readme_names_the_fields_of_a_commands_row_in_order():
    sentence = README_ROW.search((ROOT / "README.md").read_text()).group(1)
    assert tuple(re.findall(r"`(\w+)`", sentence)) == cli._Command._fields


def test_readme_states_the_limits_the_code_has():
    stated = README_LIMIT.findall((ROOT / "README.md").read_text())
    assert len(stated) >= 3
    for module, name, base, exponent in stated:
        value = int(base.replace(",", "")) ** int(exponent or 1)
        assert getattr(importlib.import_module(f"rmbounds.{module}"), name, None) == value, f"{module}.{name}"

"""rmbounds needs nothing beyond the standard library: no declared dependency and no third-party import."""
from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import rmbounds
from test_lmfdb import JSON, stand_in

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(rmbounds.__file__).parent  # the package under test: the checkout's src/rmbounds or an installed one


def imports(path):
    """(level, module) for every import in a file, nested ones included; level 0 is an absolute import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module


def test_package_imports_only_the_standard_library():
    absolute = {module for path in PACKAGE.glob("*.py") for level, module in imports(path) if level == 0}
    assert {"http.client", "urllib"} <= absolute  # the transport's imports, inside its function, are seen
    assert sorted(module for module in absolute if module.partition(".")[0] not in sys.stdlib_module_names) == []


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert "name = " in project
    assert not re.search(r"^dependencies\s*=", project, re.M)


def run_python(*argv, path=PACKAGE.parent):
    env = {**os.environ, "PYTHONPATH": str(path)}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=30)


def test_importing_the_cli_loads_no_network_module():
    script = "import sys, rmbounds.cli; print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    result = run_python("-c", script)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_cli_fetches_a_level_without_site_packages(tmp_path):
    # The package alone on the path: an installed one's directory would bring every site package with it.
    shutil.copytree(PACKAGE, tmp_path / "rmbounds")
    # B0(13, 6) = 4 and 13^4 is past the budget, so the scan asks for level 13^3 = 2197 first, once.
    with stand_in([(200, '{"data": [{"dim": 2}, {"dim": 6}]}', JSON)]) as (base, asked):
        argv = ["sharpness", "--p", "13", "--d", "6", "--budget", "4394", "--base-url", base]
        result = run_python("-S", "-m", "rmbounds.cli", *argv, path=tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "p = 13, d = 6: almost_sharp at level 2197 (v_13 = 3)\n"
    assert asked == ["/api/mf_newforms/?level=i2197&weight=i2&char_order=i1&_fields=dim&_format=json"]

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmbounds
from rmbounds import cli
from rmbounds.cyclo import Determination


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# -- exact output ----------------------------------------------------------------

VERIFY_CSV_19_10 = """\
name,ok,cases,counterexample
lambda_zero_iff_below_p,True,20008,
lambda_lower_bound,True,20000,
digit_reconstruction,True,20008,
valuation_additivity,True,448,
b0_le_bk_prime,True,80,
equality_when_p_ge_2d_plus_1,True,34,
strict_when_p_ge_5_nondivisor,True,20,
strict_when_p_le_3_nondivisor,True,8,
bk_prime_piecewise_large_p,True,49,
bk_prime_small_p_values,True,20,
bk_prime_divisor_case,True,33,
bk_prime_floor_identity,True,80,
forced_exponent_monotone,True,328,
cyclotomic_degree_monotone,True,248,
b0_equals_forced_degree_oracle,True,80,
single_prime_boundary,True,80,
reference_grid_d10,True,53,
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["profile", "--d", "4", "2^9,5^3", "--format", "csv"],
            "d,profile,admissible,determination,forced,forced_degree,residual_degree,refined_bounds\n"
            '4,"2^9,5^3",True,exact_field,Q(sqrt(2)) * Q(sqrt(5)),4,1,2:10;5:4\n',
        ),
        (
            ["forbidden", "--d", "6", "--format", "csv"],
            'profile\n"2^9,5^3"\n"2^9,13^3"\n"3^6,7^3"\n"3^6,13^3"\n"5^3,13^3"\n"7^3,13^3"\n',
        ),
        (["genus2", "5^6", "--format", "csv"], "profile,simple,field\n5^6,True,Q(sqrt(5))\n"),
        (["genus2", "2^16", "--format", "csv"], "profile,simple,field\n2^16,unknown,\n"),
        (
            ["sharpness", "--p", "3", "--d", "9", "--budget", "20000", "--offline", "--format", "csv"],
            "p,d,status,exponent_attained,level\n3,9,sharp,9,19683\n",
        ),
        (["verify", "--pmax", "19", "--dmax", "10", "--format", "csv"], VERIFY_CSV_19_10),
        (
            ["table", "--dmax", "3", "--annotate", "--offline", "--budget", "10000", "--format", "csv"],
            "d,p2,p2_status,p3,p3_status,p5,p5_status,p7,p7_status,p11,p11_status,p13,p13_status,"
            "p17,p17_status,p19,p19_status\n"
            "1,8,sharp,5,sharp,,,,,,,,,,,,\n"
            "2,10,unknown,5,sharp,4,unknown,,,,,,,,,,\n"
            "3,9 (8),unknown,7,unknown,3 (2),unknown,4,unknown,,,,,,,,\n",
        ),
        (
            ["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--offline"],
            "p = 13, d = 6: no witness found up to level 20000 (existence is not ruled out)\n",
        ),
    ],
    ids=[
        "profile-csv", "forbidden-csv", "genus2-csv", "genus2-unknown-csv", "sharpness-csv", "verify-csv",
        "table-annotated-csv", "sharpness-none-found-plain",
    ],
)
def test_exact_stdout(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    code, out = run(capsys, argv)
    assert (code, out) == (0, expected)


# -- bound ---------------------------------------------------------------------


def test_bound_plain(capsys):
    code, out = run(capsys, ["bound", "--p", "3", "--d", "9"])
    assert code == 0
    assert "B0(3,9) = 9" in out


def test_bound_gl2(capsys):
    code, out = run(capsys, ["bound", "--p", "2", "--d", "1", "--gl2"])
    assert code == 0
    assert "v_2(N) <= 9" in out


def test_bound_trivial_cell(capsys):
    code, out = run(capsys, ["bound", "--p", "23", "--d", "4"])
    assert code == 0
    assert "B'(23,4) = 2" in out and "B0(23,4) = 2" in out


def test_bound_rejects_composite_p(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bound", "--p", "4", "--d", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [["bound", "--d", "2"], ["sharpness", "--d", "2", "--budget", "100"]])
def test_prime_past_primality_limit_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli.main([*command, "--p", "1000000000000000000000000007"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --p: primality test is only deterministic below 3317044064679887385961981" in err
    assert "_prime_arg" not in err


def test_bound_json_round_trip(capsys):
    code, out = run(capsys, ["bound", "--p", "2", "--d", "8", "--format", "json"])
    assert code == 0
    triple, gl2 = cli.parse_bound_json(out)
    assert (triple.p, triple.d, triple.b0) == (2, 8, 14)
    assert gl2 is None


def test_bound_csv(capsys):
    code, out = run(capsys, ["bound", "--p", "2", "--d", "8", "--format", "csv"])
    assert out.splitlines()[0] == "p,d,bk,bk_prime,b0"
    assert out.splitlines()[1] == "2,8,112,14,14"


# -- table ---------------------------------------------------------------------


def test_table_matches_reference_grid(capsys):
    code, out = run(capsys, ["table", "--dmax", "10", "--pmax", "19", "--format", "json"])
    assert code == 0
    table = cli.parse_table_json(out)
    from rmbounds.verify import REFERENCE_GRID_D10

    for (d, p), (bp, b0) in REFERENCE_GRID_D10.items():
        cell = table.cells[(d, p)]
        assert (cell.triple.bk_prime, cell.triple.b0) == (bp, b0)
    assert set(table.cells) == set(REFERENCE_GRID_D10)


def test_table_csv_rows(capsys):
    code, out = run(capsys, ["table", "--dmax", "3", "--pmax", "7", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "d,p2,p3,p5,p7"
    assert len(lines) == 4  # header + 3 data rows
    assert lines[3].startswith("3,9 (8),7,3 (2),4")


def test_table_plain_deterministic(capsys):
    _, first = run(capsys, ["table", "--dmax", "10", "--pmax", "19"])
    _, second = run(capsys, ["table", "--dmax", "10", "--pmax", "19"])
    assert first == second


def test_table_annotated_offline(capsys, tmp_path):
    code, out = run(
        capsys,
        ["table", "--dmax", "10", "--pmax", "19", "--annotate", "--budget", "20000", "--offline"],
    )
    assert code == 0
    assert "14!" in out  # (2, 8) sharp at 16384
    assert "4*" in out  # (19, 9) almost sharp at 6859


def count_requests(monkeypatch):
    """Answer every request with no orbits and no rate-limit wait; returns the levels asked for."""
    from rmbounds import lmfdb

    asked = []

    def transport(url, params, timeout):
        asked.append(params["level"])
        return 200, {"data": []}, {}

    monkeypatch.setattr(lmfdb, "_requests_transport", transport)
    monkeypatch.setattr(lmfdb, "MIN_INTERVAL", 0.0)
    return asked


def test_table_annotate_scans_only_printed_columns(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    asked = count_requests(monkeypatch)
    code, _ = run(capsys, ["table", "--dmax", "10", "--pmax", "5", "--annotate", "--budget", "2000"])
    assert code == 0
    assert len(asked) == 1762  # the full p <= 2d + 1 grid sends 4,848


def test_table_annotate_strict_ignores_unprinted_columns(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    argv = ["table", "--dmax", "1", "--pmax", "2", "--annotate", "--offline", "--budget", "100"]
    assert run(capsys, argv) == (0, "d\\p  p=2\n1    8\n")
    assert run(capsys, [*argv, "--strict"]) == (0, "d\\p  p=2\n1    8\n")


@pytest.mark.parametrize(
    "pmax, message", [("1", "a prime bound >= 2, got 1"), ("0", "a positive integer, got 0")], ids=["1", "0"]
)
def test_table_rejects_pmax_below_2(capsys, pmax, message):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--dmax", "3", "--pmax", pmax])
    assert info.value.code == 2
    assert f"argument --pmax: expected {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, command",
    [
        (["table", "--dmax", "2"], "cmd_table"),
        (["forbidden", "--d", "6"], "cmd_forbidden"),
        (["verify", "--dmax", "1"], "cmd_verify"),
    ],
)
def test_pmax_above_limit_is_rejected_before_any_sieve(capsys, monkeypatch, argv, command):
    def must_not_run(args):
        raise AssertionError("the command ran, so its sieve would too")

    monkeypatch.setattr(cli, command, must_not_run)
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--pmax", "100000000000"])
    assert info.value.code == 2
    assert "argument --pmax: expected a prime bound <= 10000000, got 100000000000" in capsys.readouterr().err
    assert cli.build_parser().parse_args([*argv, "--pmax", str(cli.PMAX_LIMIT)]).pmax == cli.PMAX_LIMIT


def test_table_smallest_pmax(capsys):
    code, out = run(capsys, ["table", "--dmax", "1", "--pmax", "2", "--format", "csv"])
    assert (code, out) == (0, "d,p2\n1,8\n")


# -- profile ---------------------------------------------------------------------


def test_profile_exact_field(capsys):
    code, out = run(capsys, ["profile", "--d", "3", "3^6"])
    assert code == 0
    assert "Q(zeta_9)^+" in out
    assert "exact_field" in out


def test_profile_compositum(capsys):
    code, out = run(capsys, ["profile", "--d", "6", "2^9,3^6"])
    assert code == 0
    assert "Q(sqrt(2)) * Q(zeta_9)^+" in out


def test_profile_no_constraint(capsys):
    code, out = run(capsys, ["profile", "--d", "5", "2^2"])
    assert code == 0
    assert "no_constraint" in out


def test_profile_inadmissible_is_not_an_error(capsys):
    code, out = run(capsys, ["profile", "--d", "2", "2^9,5^3"])
    assert code == 0
    assert "admissible: no" in out


def test_profile_parse_error(capsys):
    code = cli.main(["profile", "--d", "2", "2^9,bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "position" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["profile", "--d", "2", "1000000000000000000000000007^3"], 2),
        (["genus2", "1000000000000000000000000007^3"], 2),
        (["profile", "--d", "2", "2^" + "1" * 4301], 2),
        (["profile", "--d", "2", "2^100000"], 1),
        (["profile", "--d", "2", "2^99999999999999999999"], 1),
    ],
)
def test_out_of_range_profile_is_an_error_line(argv, code):
    # In a child process with a timeout: without the range checks the last
    # input builds 2**(r - 2) for r near 5 * 10**19 and does not return.
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "rmbounds.cli", *argv], env=env, capture_output=True, text=True, timeout=5
    )
    assert result.returncode == code
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize(
    "argv, shown",
    [
        (["profile", "--d", "2", "2^14000"], f"Q(zeta_{2**6998})^+"),
        (["profile", "--d", "2", "3^9000"], f"Q(zeta_{3**4499})^+"),
        (["genus2", "2^30000"], "30000"),
    ],
)
def test_large_profiles_within_range_are_answered(capsys, argv, shown, fmt):
    code, out = run(capsys, [*argv, "--format", fmt])
    assert code == 0
    assert shown in out


def test_profile_json_round_trip(capsys):
    code, out = run(capsys, ["profile", "--d", "4", "2^9,5^3", "--format", "json"])
    report = cli.parse_profile_json(out)
    assert report.determination is Determination.EXACT_FIELD
    assert report.refined_bounds == {2: 10, 5: 4}


def test_profile_json_with_huge_r_is_rejected_promptly(capsys):
    # In a child process with a timeout: without the range check in the
    # field's construction, parsing builds 2**(r - 2) for r = 10**20.
    code, out = run(capsys, ["profile", "--d", "4", "2^9,5^3", "--format", "json"])
    obj = json.loads(out)
    assert obj["forced"]["components"][0]["p"] == 2
    obj["forced"]["components"][0]["r"] = 10**20
    script = "import sys\nfrom rmbounds.cli import parse_profile_json\nparse_profile_json(sys.stdin.read())"
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(obj), env=env, capture_output=True, text=True, timeout=5
    )
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1].startswith("ValueError: exponent at prime 2 is too large")


# -- forbidden ---------------------------------------------------------------------


def test_forbidden_plain(capsys):
    code, out = run(capsys, ["forbidden", "--d", "3"])
    assert code == 0
    assert "3^6 * 7^3" in out


def test_forbidden_json_round_trip(capsys):
    code, out = run(capsys, ["forbidden", "--d", "4", "--format", "json"])
    profiles = cli.parse_forbidden_json(out)
    assert [str(p) for p in profiles] == ["2^11,5^3"]


def test_forbidden_empty(capsys):
    code, out = run(capsys, ["forbidden", "--d", "1"])
    assert code == 0
    assert "no forbidden combinations" in out


# -- genus2 ---------------------------------------------------------------------


def test_genus2_simple(capsys):
    code, out = run(capsys, ["genus2", "5^6"])
    assert code == 0
    assert "simple: yes" in out and "Q(sqrt(5))" in out


def test_genus2_unknown(capsys):
    code, out = run(capsys, ["genus2", "2^16"])
    assert code == 0
    assert "simple: unknown" in out


def test_genus2_rejects_odd_exponent(capsys):
    code = cli.main(["genus2", "5^5"])
    assert code == 1
    assert "odd exponent" in capsys.readouterr().err


def test_genus2_json_round_trip(capsys):
    code, out = run(capsys, ["genus2", "2^18", "--format", "json"])
    report = cli.parse_genus2_json(out)
    assert report.simple is True and report.field.name == "Q(sqrt(2))"


# -- sharpness ---------------------------------------------------------------------


def test_sharpness_offline_fixture(capsys):
    code, out = run(capsys, ["sharpness", "--p", "11", "--d", "5", "--budget", "15000", "--offline"])
    assert code == 0
    assert "sharp at level 14641" in out


def test_sharpness_none_found(capsys):
    code, out = run(capsys, ["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--offline"])
    assert code == 0
    assert "no witness found" in out
    assert "not ruled out" in out


def test_sharpness_json_round_trip(capsys):
    code, out = run(capsys, ["sharpness", "--p", "2", "--d", "7", "--budget", "16384", "--offline", "--format", "json"])
    witness = cli.parse_sharpness_json(out)
    assert (witness.status, witness.level) == ("sharp", 12032)


def test_sharpness_network_failure_exits_1(capsys, monkeypatch):
    from test_lmfdb import refuse_connections

    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    tried = refuse_connections(monkeypatch)
    code = cli.main(["sharpness", "--p", "13", "--d", "6", "--budget", "20000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: request to ") and "connection refused" in captured.err
    assert len(tried) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--p", "3", "--d", "9", "--budget", "100", "--offline"],
        ["table", "--dmax", "2", "--annotate", "--offline"],
    ],
    ids=["sharpness", "table-annotate"],
)
def test_corrupt_cache_is_an_error_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    code = cli.main([*argv, "--cache", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}:1: not valid JSON: ")


def test_cache_env_var_overrides_flag(capsys, tmp_path, monkeypatch):
    from rmbounds.lmfdb import OrbitDimCache

    env_cache = tmp_path / "env-cache.jsonl"
    flag_cache = tmp_path / "flag-cache.jsonl"
    OrbitDimCache(env_cache).put(49, [1])  # 49 = 7^2 witnesses (p=7, d=1) at b0(7,1) = 2
    OrbitDimCache(flag_cache)  # exists but empty
    args = ["sharpness", "--p", "7", "--d", "1", "--budget", "49", "--offline", "--cache", str(flag_cache)]

    code, out = run(capsys, args)
    assert "no witness found" in out  # flag cache alone cannot answer

    monkeypatch.setenv(cli.ENV_CACHE, str(env_cache))
    code, out = run(capsys, args)
    assert code == 0
    assert "sharp at level 49" in out  # env var took precedence over the flag


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--p", "7", "--d", "1", "--budget", "100"],
        ["table", "--dmax", "1", "--pmax", "3", "--annotate", "--budget", "100"],
    ],
    ids=["sharpness", "table-annotate"],
)
def test_scan_commands_close_their_cache(capsys, monkeypatch, tmp_path, argv):
    from rmbounds import lmfdb

    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    asked = count_requests(monkeypatch)
    closed = []
    real_close = lmfdb.OrbitDimCache.close

    def close(self):
        closed.append(self.path)
        real_close(self)

    monkeypatch.setattr(lmfdb.OrbitDimCache, "close", close)
    path = tmp_path / "cache.jsonl"
    code, _ = run(capsys, [*argv, "--cache", str(path)])
    assert code == 0 and asked  # the scan wrote records, so the cache had a handle open
    assert closed == [path]


def test_base_url_env_var_overrides_flag(monkeypatch):
    import argparse

    monkeypatch.delenv(cli.ENV_BASE_URL, raising=False)
    args = argparse.Namespace(base_url=None, cache=None, offline=True)
    assert cli._client_from_args(args).base_url == "https://www.lmfdb.org"
    args = argparse.Namespace(base_url="https://flag.example", cache=None, offline=True)
    assert cli._client_from_args(args).base_url == "https://flag.example"
    monkeypatch.setenv(cli.ENV_BASE_URL, "https://env.example")
    assert cli._client_from_args(args).base_url == "https://env.example"


# -- verify ---------------------------------------------------------------------


def test_verify_small_ranges(capsys):
    code, out = run(capsys, ["verify", "--pmax", "19", "--dmax", "10"])
    assert code == 0
    assert "reference_grid_d10" in out
    assert "FAIL" not in out


def test_verify_minimal_range(capsys):
    code, out = run(capsys, ["verify", "--pmax", "2", "--dmax", "1"])
    assert code == 0
    assert "FAIL" not in out


def test_verify_empty_box_is_not_a_pass(capsys):
    code, out = run(capsys, ["verify", "--pmax", "1", "--dmax", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "1/1 properties hold; 15 checked no case"
    assert [line for line in lines if line.startswith("PASS")] == ["PASS bk_prime_small_p_values (8 cases)"]
    assert sum(line.startswith("EMPTY") and line.endswith(" (0 cases)") for line in lines) == 15


def test_verify_json(capsys):
    code, out = run(capsys, ["verify", "--pmax", "19", "--dmax", "10", "--format", "json"])
    results = cli.parse_verify_json(out)
    assert all(result.ok for result in results)


def test_verify_nonzero_exit_on_failure(capsys, monkeypatch):
    from rmbounds.verify import PropertyResult

    broken = [PropertyResult(name="synthetic", ok=False, cases=1, counterexample="p=2, d=1")]
    monkeypatch.setattr(cli.verify, "run_all", lambda p_max, d_max: broken)
    code, out = run(capsys, ["verify", "--pmax", "2", "--dmax", "1"])
    assert code == 1
    assert "FAIL synthetic: counterexample p=2, d=1" in out


# -- one parser, per-call logging -------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_calls_the_command_bound_when_it_runs(capsys, monkeypatch):
    argv = ["table", "--dmax", "2"]
    assert run(capsys, argv)[0] == 0  # the parser exists before the rebinding
    called = []
    monkeypatch.setattr(cli, "cmd_table", lambda args: called.append(args.dmax) or 0)
    assert cli.main(argv) == 0
    assert called == [2]


@pytest.mark.parametrize(
    "first, second",
    [
        (["bound", "--p", "5", "--d", "2", "--format", "json"], ["bound", "--p", "5", "--d", "2"]),
        (
            ["table", "--dmax", "2", "--annotate", "--offline", "--budget", "100", "--format", "json"],
            ["table", "--dmax", "2", "--format", "json"],
        ),
    ],
    ids=["format", "annotate"],
)
def test_main_calls_share_no_parse_state(capsys, monkeypatch, first, second):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    alone = run(capsys, second)
    flagged = run(capsys, first)
    assert flagged[1] != alone[1]
    assert run(capsys, second) == alone


def test_verbose_takes_effect_on_every_call(capsys, caplog):
    argv = ["sharpness", "--p", "7", "--d", "1", "--budget", "200", "--offline"]
    handlers = list(logging.getLogger().handlers)
    for verbose, info_lines in ((False, 0), (True, 2), (False, 0), (True, 2)):
        caplog.clear()
        assert cli.main(["--verbose", *argv] if verbose else argv) == 0
        err = capsys.readouterr().err
        assert err.count("INFO rmbounds.lmfdb: scan (p=7, d=1, ") == info_lines
        assert len(caplog.records) == info_lines  # others' root handlers still see the records
    assert logging.getLogger().handlers == handlers

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rmbounds
from rmbounds import bounds, cli, verify
from rmbounds.arith import PMAX_LIMIT
from rmbounds.bounds import BoundTriple, render_table
from rmbounds.cyclo import Determination, analyze_profile, enumerate_forbidden, genus2_rm_analysis
from rmbounds.lmfdb import OrbitDimClient


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


FORBIDDEN_D96_PLAIN = """\
minimal forbidden exponent combinations for d = 96:
  2^13 * 17^3
  2^17 * 5^3
  2^17 * 13^3
  3^6 * 7^3
  3^6 * 13^3
  7^3 * 13^3
  2^11 * 5^3 * 17^3
  2^11 * 13^3 * 17^3
  2^15 * 5^3 * 13^3
  2^9 * 5^3 * 13^3 * 17^3
"""


VERIFY_DEFAULT_PLAIN = """\
PASS lambda_zero_iff_below_p (37515 cases)
PASS lambda_lower_bound (37500 cases)
PASS digit_reconstruction (37515 cases)
PASS valuation_additivity (840 cases)
PASS b0_le_bk_prime (16800 cases)
PASS equality_when_p_ge_2d_plus_1 (14290 cases)
PASS strict_when_p_ge_5_nondivisor (2127 cases)
PASS strict_when_p_le_3_nondivisor (113 cases)
PASS bk_prime_piecewise_large_p (15331 cases)
PASS bk_prime_small_p_values (200 cases)
PASS bk_prime_divisor_case (428 cases)
PASS bk_prime_floor_identity (2944 cases)
PASS forced_exponent_monotone (1886 cases)
PASS cyclotomic_degree_monotone (1426 cases)
PASS b0_equals_forced_degree_oracle (2944 cases)
PASS single_prime_boundary (2944 cases)
PASS reference_grid_d10 (53 cases)
17/17 properties hold
"""


BOUND_3_9_PLAIN = """\
p = 3, d = 9
B(3,9)  = 81    conductor-exponent bound for v_p(N^d), any abelian variety
B'(3,9) = 9    the same bound per dimension: floor(B/d)
B0(3,9) = 9    bound on v_p(N) under maximal real multiplication
"""


BOUND_3_9_JSON = """\
{
  "command": "bound",
  "p": 3,
  "d": 9,
  "bk": 81,
  "bk_prime": 9,
  "b0": 9
}
"""


SHARPNESS_2_7_JSON = """\
{
  "command": "sharpness",
  "p": 2,
  "d": 7,
  "exponent_attained": 8,
  "level": 12032,
  "status": "sharp"
}
"""


VERIFY_JSON_19_10 = """\
{
  "command": "verify",
  "p_max": 19,
  "d_max": 10,
  "ok": true,
  "results": [
    {
      "name": "lambda_zero_iff_below_p",
      "ok": true,
      "cases": 20008,
      "counterexample": null
    },
    {
      "name": "lambda_lower_bound",
      "ok": true,
      "cases": 20000,
      "counterexample": null
    },
    {
      "name": "digit_reconstruction",
      "ok": true,
      "cases": 20008,
      "counterexample": null
    },
    {
      "name": "valuation_additivity",
      "ok": true,
      "cases": 448,
      "counterexample": null
    },
    {
      "name": "b0_le_bk_prime",
      "ok": true,
      "cases": 80,
      "counterexample": null
    },
    {
      "name": "equality_when_p_ge_2d_plus_1",
      "ok": true,
      "cases": 34,
      "counterexample": null
    },
    {
      "name": "strict_when_p_ge_5_nondivisor",
      "ok": true,
      "cases": 20,
      "counterexample": null
    },
    {
      "name": "strict_when_p_le_3_nondivisor",
      "ok": true,
      "cases": 8,
      "counterexample": null
    },
    {
      "name": "bk_prime_piecewise_large_p",
      "ok": true,
      "cases": 49,
      "counterexample": null
    },
    {
      "name": "bk_prime_small_p_values",
      "ok": true,
      "cases": 20,
      "counterexample": null
    },
    {
      "name": "bk_prime_divisor_case",
      "ok": true,
      "cases": 33,
      "counterexample": null
    },
    {
      "name": "bk_prime_floor_identity",
      "ok": true,
      "cases": 80,
      "counterexample": null
    },
    {
      "name": "forced_exponent_monotone",
      "ok": true,
      "cases": 328,
      "counterexample": null
    },
    {
      "name": "cyclotomic_degree_monotone",
      "ok": true,
      "cases": 248,
      "counterexample": null
    },
    {
      "name": "b0_equals_forced_degree_oracle",
      "ok": true,
      "cases": 80,
      "counterexample": null
    },
    {
      "name": "single_prime_boundary",
      "ok": true,
      "cases": 80,
      "counterexample": null
    },
    {
      "name": "reference_grid_d10",
      "ok": true,
      "cases": 53,
      "counterexample": null
    }
  ]
}
"""


# --full keeps the trivial cells (p > 2d + 1) that a plain table leaves blank
TABLE_FULL_5_11_PLAIN = """\
d\\p  p=2     p=3    p=5    p=7    p=11
1    8       5      2      2      2
2    10      5      4      2      2
3    9 (8)   7      3 (2)  4      2
4    12      6 (5)  4      3 (2)  2
5    11 (8)  6 (5)  4 (2)  3 (2)  4
"""


# a residual degree, and a "given" rest on each refined bound
PROFILE_12_PLAIN = """\
d = 12, profile 2^9,5^3
admissible: yes
forced subfield: Q(sqrt(2)) * Q(sqrt(5)) (degree 4)
determination: contains_subfield
residual degree: 3
refined bound: v_2(N) <= 10 given 5^3
refined bound: v_5(N) <= 4 given 2^9
"""


# every flag: "!" and "*" on a bare B0 and on the B0 in parentheses after a larger B'
TABLE_ANNOTATED_10_19_PLAIN = """\
d\\p  p=2       p=3    p=5    p=7     p=11   p=13   p=17   p=19
1    8!        5!
2    10        5!     4
3    9 (8)     7      3 (2)  4
4    12        6 (5)  4      3 (2)
5    11 (8)    6 (5)  4 (2)  3 (2)   4!
6    11 (10)   7      4      4       3 (2)  4
7    10 (8!)   6 (5)  4 (2)  4 (2)   3 (2)  3 (2)
8    14!       6 (5)  4      3 (2)   3 (2)  3 (2)  4
9    13 (8!)   9!     4 (2)  4       3 (2)  3 (2)  3 (2)  4*
10   13 (10!)  8 (5)  6      4 (2*)  4*     3 (2)  3 (2)  3 (2)
"""


# Whole outputs too long to hold here, one file per format.
DATA = Path(__file__).parent / "data"
FORBIDDEN_5040_ARGV = ["forbidden", "--d", "5040", "--pmax", "2000", "--max-entries", "4"]

# Commands whose whole stdout is pinned, as (argv, stdout).
EXACT_STDOUT = pytest.mark.parametrize(
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
        # the first four-prime minimal forbidden profile is the last line
        (["forbidden", "--d", "96", "--pmax", "19", "--max-entries", "4"], FORBIDDEN_D96_PLAIN),
        # at the default box every property has cases, so the summary names all 17
        (["verify"], VERIFY_DEFAULT_PLAIN),
        (["bound", "--p", "3", "--d", "9"], BOUND_3_9_PLAIN),
        (["bound", "--p", "3", "--d", "9", "--format", "csv"], "p,d,bk,bk_prime,b0\n3,9,81,9,9\n"),
        (["bound", "--p", "3", "--d", "9", "--format", "json"], BOUND_3_9_JSON),
        (["table", "--dmax", "5", "--pmax", "11", "--full"], TABLE_FULL_5_11_PLAIN),
        (
            ["sharpness", "--p", "2", "--d", "7", "--budget", "16384", "--offline", "--format", "json"],
            SHARPNESS_2_7_JSON,
        ),
        (["verify", "--pmax", "19", "--dmax", "10", "--format", "json"], VERIFY_JSON_19_10),
        (["profile", "--d", "12", "2^9,5^3"], PROFILE_12_PLAIN),
        (
            ["genus2", "5^6"],
            "conductor profile 5^6\nsimple: yes (exponent exceeds the product-of-elliptic-curves cap)\n"
            "endomorphism algebra: Q(sqrt(5))\n",
        ),
        (
            ["genus2", "5^6,13^6"],
            "conductor profile 5^6,13^6\nsimple: yes (exponent exceeds the product-of-elliptic-curves cap)\n"
            "warning: halved profile is inadmissible in dimension 2; no such surface exists\n",
        ),
        (
            ["sharpness", "--p", "11", "--d", "5", "--budget", "15000", "--offline"],
            "p = 11, d = 5: sharp at level 14641 (v_11 = 4)\n",
        ),
        (
            ["sharpness", "--p", "19", "--d", "9", "--budget", "20000", "--offline"],
            "p = 19, d = 9: almost_sharp at level 6859 (v_19 = 3)\n",
        ),
        (
            ["table", "--dmax", "10", "--pmax", "19", "--annotate", "--offline", "--budget", "20000"],
            TABLE_ANNOTATED_10_19_PLAIN,
        ),
        (
            ["table", "--dmax", "3", "--pmax", "7", "--full", "--format", "csv"],
            "d,p2,p3,p5,p7\n1,8,5,2,2\n2,10,5,4,2\n3,9 (8),7,3 (2),4\n",
        ),
        (["forbidden", "--d", "1", "--pmax", "1"], "no forbidden combinations for d = 1 (primes <= 1, <= 2 primes)\n"),
        # the empty profile is named, as profile names it, so no plain line ends in a space
        (
            ["genus2", ""],
            "conductor profile (empty)\nsimple: unknown (exponents stay within the two-elliptic-curve range)\n",
        ),
        # 400 profiles of two to four primes (268, 115 and 17), in each format
        *(
            (FORBIDDEN_5040_ARGV + ["--format", fmt], (DATA / f"forbidden-5040-2000-4.{suffix}").read_text())
            for fmt, suffix in (("plain", "txt"), ("csv", "csv"), ("json", "json"))
        ),
    ],
    ids=[
        "profile-csv", "forbidden-csv", "genus2-csv", "genus2-unknown-csv", "sharpness-csv", "verify-csv",
        "table-annotated-csv", "sharpness-none-found-plain", "forbidden-four-prime-plain", "verify-default-plain",
        "bound-plain", "bound-csv", "bound-json", "table-full-plain", "sharpness-json", "verify-json",
        "profile-residual-plain", "genus2-plain", "genus2-warning-plain", "sharpness-sharp-plain",
        "sharpness-almost-sharp-plain", "table-annotated-plain", "table-full-csv", "forbidden-none-plain",
        "genus2-empty-plain", "forbidden-5040-plain", "forbidden-5040-csv", "forbidden-5040-json",
    ],
)


@EXACT_STDOUT
def test_exact_stdout(capsys, argv, expected):
    code, out = run(capsys, argv)
    assert (code, out) == (0, expected)


@EXACT_STDOUT
def test_exact_stdout_ignores_the_environment(capsys, monkeypatch, tmp_path, argv, expected):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")  # read as a cache, it would stop a scan with an error line
    monkeypatch.setenv("RMBOUNDS_CACHE", str(bad))
    monkeypatch.setenv("RMBOUNDS_BASE_URL", "http://bogus.invalid")
    code, out = run(capsys, argv)
    assert (code, out) == (0, expected)


# -- bound ---------------------------------------------------------------------


def test_bound_plain(capsys):
    code, out = run(capsys, ["bound", "--p", "3", "--d", "9"])
    assert code == 0
    assert "B0(3,9) = 9" in out


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
    assert list(json.loads(out)) == ["command", "p", "d", "bk", "bk_prime", "b0"]
    triple = cli.parse_json(out, "bound")
    assert (triple.p, triple.d, triple.bk, triple.bk_prime, triple.b0) == (2, 8, 112, 14, 14)


def test_bound_csv(capsys):
    code, out = run(capsys, ["bound", "--p", "2", "--d", "8", "--format", "csv"])
    assert (code, out) == (0, "p,d,bk,bk_prime,b0\n2,8,112,14,14\n")


def test_bound_has_no_gl2_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bound", "--p", "2", "--d", "1", "--gl2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --gl2" in capsys.readouterr().err


# -- output past 4,300 digits ---------------------------------------------------
# Python refuses to print an int of more than 4,300 digits; the package refuses
# such a result first, with its own error and before any output.

BIG_P = 2**61 - 1  # a Mersenne prime: at a 4,300-digit d, B(p, d) has few base-p digits to walk


def _largest_d(p: int) -> int:
    """The largest d with B(p, d) < 10**4300, for an odd prime p, from B's base-p digit form.

    With q = p - 1 and 2d = q t + s, 0 <= s < q: B(p, d) = 2d + p t + q lambda_p(t) is
    s + sum_i c_i p^i (q + p + q i) over the base-p digits c_i of t.  Each weight exceeds
    every lower digit's total, so t's digits are taken greedily from the top.
    """
    q, rest, t, i = p - 1, 10**4300 - 1, 0, 0
    while p ** (i + 1) * (q + p + q * (i + 1)) <= rest:
        i += 1
    for i in range(i, -1, -1):
        weight = p**i * (q + p + q * i)
        digit = min(p - 1, rest // weight)
        t, rest = t + digit * p**i, rest - digit * weight
    return (q * t + min(q - 2, rest)) // 2  # s even, as q t is


BIG_D = _largest_d(BIG_P)
COMPOSITUM_TOO_LARGE = "profile is too large: its forced compositum's degree has more than 4300 digits"


def test_largest_d_is_the_last_bound_that_fits():
    assert len(str(BIG_D)) == 4298
    assert len(str(BoundTriple.compute(BIG_P, BIG_D).bk)) == 4300
    assert BoundTriple.compute(BIG_P, BIG_D + 1).bk >= 10**4300


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "argv, largest",
    [
        (["bound", "--p", str(BIG_P), "--d", str(BIG_D)], lambda: BoundTriple.compute(BIG_P, BIG_D).bk),
        (["profile", "--d", "2", "97^4300,2^212"], lambda: analyze_profile({97: 4300, 2: 212}, 2).forced.degree),
        (["genus2", "97^8600,2^424"], lambda: analyze_profile({97: 4300, 2: 212}, 2).forced.degree),
    ],
    ids=["bound", "profile", "genus2"],
)
def test_a_4300_digit_result_is_printed(capsys, fmt, argv, largest):
    number = str(largest())
    assert len(number) == 4300
    code, out = run(capsys, [*argv, "--format", fmt])
    assert code == 0
    assert number in out or (argv[0], fmt) in {("genus2", "plain"), ("genus2", "csv")}  # genus2 names only the field


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["bound", "--p", str(BIG_P), "--d", str(BIG_D + 1)],
            f"d is too large: B({BIG_P},d) has more than 4300 digits",
        ),
        (["profile", "--d", "2", "97^4300,2^213"], COMPOSITUM_TOO_LARGE),
        (["profile", "--d", "2", "97^4300,89^4300"], COMPOSITUM_TOO_LARGE),
        (["genus2", "97^8600,2^426"], COMPOSITUM_TOO_LARGE),
    ],
    ids=["bound", "profile", "profile-two-large-fields", "genus2"],
)
def test_a_result_past_4300_digits_is_refused(capsys, fmt, argv, message):
    assert cli.main([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# -- table ---------------------------------------------------------------------


def test_table_matches_reference_grid(capsys):
    code, out = run(capsys, ["table", "--dmax", "10", "--pmax", "19", "--format", "json"])
    assert code == 0
    table = cli.parse_json(out, "table")
    from rmbounds.verify import REFERENCE_GRID_D10

    cells = {(triple.d, triple.p): triple for triple, _ in table.cells}
    for (d, p), (bp, b0) in REFERENCE_GRID_D10.items():
        triple = cells[(d, p)]
        assert (triple.bk_prime, triple.b0) == (bp, b0)
    assert set(cells) == set(REFERENCE_GRID_D10)


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

    monkeypatch.setattr(lmfdb, "_urllib_transport", transport)
    monkeypatch.setattr(lmfdb, "MIN_INTERVAL", 0.0)
    return asked


def test_table_annotate_scans_only_printed_columns(capsys, monkeypatch):
    asked = count_requests(monkeypatch)
    code, _ = run(capsys, ["table", "--dmax", "10", "--pmax", "5", "--annotate", "--budget", "2000"])
    assert code == 0
    assert len(asked) == 1762  # the full p <= 2d + 1 grid sends 4,848


def test_table_annotate_strict_ignores_unprinted_columns(capsys):
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
    "argv", [["table", "--dmax", "2"], ["forbidden", "--d", "6"], ["verify", "--dmax", "1"]], ids=lambda argv: argv[0]
)
def test_pmax_above_limit_is_rejected_before_any_sieve(capsys, monkeypatch, argv):
    def must_not_run(args):
        raise AssertionError("the command ran, so its sieve would too")

    monkeypatch.setitem(cli.COMMANDS, argv[0], cli.COMMANDS[argv[0]]._replace(run=must_not_run))
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--pmax", "100000000000"])
    assert info.value.code == 2
    assert "argument --pmax: expected a prime bound <= 10000000, got 100000000000" in capsys.readouterr().err
    assert cli.build_parser().parse_args([*argv, "--pmax", str(cli.PMAX_LIMIT)]).pmax == cli.PMAX_LIMIT


# Calls with an input past a library limit: each must raise ValueError before it allocates.
PAST_A_LIMIT = {
    "render_table-pmax": lambda: render_table(1, PMAX_LIMIT + 1),
    "render_table-grid": lambda: render_table(10**5, 23),  # 9 primes: 900,000 cells
    "enumerate_forbidden-pmax": lambda: enumerate_forbidden(6, PMAX_LIMIT + 1, 2),
    "run_all-pmax": lambda: verify.run_all(PMAX_LIMIT + 1, 1),
    "parse_json-table-dmax": lambda: cli.parse_json(
        '{"d_max": 200000, "p_max": 19, "annotated": false, "cells": []}', "table"
    ),
    "parse_json-forbidden-pmax": lambda: cli.parse_json(
        '{"d": 6, "prime_bound": 100000000000, "max_entries": 2, "include_singletons": false, "profiles": []}', "forbidden"
    ),
}


@pytest.mark.parametrize("call", PAST_A_LIMIT.values(), ids=PAST_A_LIMIT.keys())
def test_input_past_a_limit_is_rejected_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_table_grid_past_the_limit_is_an_error(capsys):
    assert cli.main(["table", "--dmax", "100000", "--pmax", "23"]) == 1
    assert capsys.readouterr().err == "error: a grid of 100000 rows by 9 primes has more than 800000 cells\n"


def test_table_dmax_is_limited_by_the_grid_alone(capsys):
    assert cli.main(["table", "--dmax", "100001"]) == 1
    assert capsys.readouterr() == ("", "error: a grid of 100001 rows by 8 primes has more than 800000 cells\n")
    assert cli.build_parser().parse_args(["table", "--dmax", "100001", "--pmax", "2"]).dmax == 100001


@pytest.mark.parametrize("offline", [[], ["--offline"]], ids=["online", "offline"])
def test_table_annotate_checks_the_grid_before_any_scan(capsys, monkeypatch, offline):
    asked = count_requests(monkeypatch)
    argv = ["table", "--dmax", "100000", "--pmax", "23", "--annotate", "--budget", "100", *offline]
    assert cli.main(argv) == 1
    assert asked == []
    assert capsys.readouterr().err == "error: a grid of 100000 rows by 9 primes has more than 800000 cells\n"


def test_table_annotate_sieves_past_2_dmax_plus_1_once(capsys, monkeypatch):
    sieved = []  # the bound of each sieve the table's grid and the scan's grid ask for
    sieve = bounds.primes_up_to
    monkeypatch.setattr(bounds, "primes_up_to", lambda bound: sieved.append(bound) or sieve(bound))
    argv = ["table", "--dmax", "1", "--pmax", "10000000", "--annotate", "--offline", "--budget", "10"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("  p=9999991\n1    8    5\n")
    assert [bound for bound in sieved if bound > 2 * 1 + 1] == [10000000]  # no prime above 3 is scanned


# A table is printed as its cells are built, so its memory does not grow with its rows; holding every
# cell until the table is printed peaks at 59-126 MB on this grid.
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_table_is_printed_in_memory_that_does_not_grow_with_its_grid(monkeypatch, fmt):
    argv = ["table", "--dmax", "20000", "--pmax", "19", "--format", fmt]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2_000_000


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


PROFILE_INADMISSIBLE_D6_PLAIN = """\
d = 6, profile 5^3,13^3
admissible: no
forced subfield: Q(sqrt(5)) * Q(zeta_13)^+ (degree 12)
determination: inadmissible
refined bound: v_5(N) <= 2 given 13^3
refined bound: v_13(N) <= 2 given 5^3
"""

PROFILE_INADMISSIBLE_D6_JSON = {
    "command": "profile",
    "d": 6,
    "profile": [{"p": 5, "e": 3}, {"p": 13, "e": 3}],
    "admissible": False,
    "forced": {
        "degree": 12,
        "components": [
            {"p": 5, "r": 1, "degree": 2, "name": "Q(sqrt(5))"},
            {"p": 13, "r": 1, "degree": 6, "name": "Q(zeta_13)^+"},
        ],
    },
    "determination": "inadmissible",
    "residual_degree": None,
    "refined_bounds": {"5": 2, "13": 2},
}


def test_inadmissible_profile_reports_inadmissible(capsys):
    # A degree-12 compositum cannot lie in a degree-6 field, so it neither is nor contains the field.
    argv = ["profile", "--d", "6", "5^3,13^3"]
    assert run(capsys, argv) == (0, PROFILE_INADMISSIBLE_D6_PLAIN)
    code, out = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out) == PROFILE_INADMISSIBLE_D6_JSON
    assert cli.parse_json(out, "profile").determination is Determination.INADMISSIBLE


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


def test_closed_stdout_ends_with_status_1_and_no_traceback():
    # As `rmbounds table --dmax 5000 --pmax 19 | head -1`: the table is far
    # longer than a pipe's buffer, so the reader closes the pipe mid-write.
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    argv = [sys.executable, "-m", "rmbounds.cli", "table", "--dmax", "5000", "--pmax", "19"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline().startswith(b"d\\p  p=2")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=10) == 1
    assert err == b""


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
    report = cli.parse_json(out, "profile")
    assert report.determination is Determination.EXACT_FIELD
    assert report.refined_bounds == {2: 10, 5: 4}


def test_profile_json_with_huge_r_is_rejected_promptly(capsys):
    # In a child process with a timeout: a parse that built the stored field
    # would compute 2**(r - 2) for r = 10**20.  The field is recomputed from
    # the profile instead, and the stored one is only compared with it.
    code, out = run(capsys, ["profile", "--d", "4", "2^9,5^3", "--format", "json"])
    obj = json.loads(out)
    assert obj["forced"]["components"][0]["p"] == 2
    obj["forced"]["components"][0]["r"] = 10**20
    script = "import sys\nfrom rmbounds.cli import parse_json\nparse_json(sys.stdin.read(), 'profile')"
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(obj), env=env, capture_output=True, text=True, timeout=5
    )
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        "ValueError: field 'forced' does not match the result recomputed from the document's inputs"
    )


# -- forbidden ---------------------------------------------------------------------


def test_forbidden_plain(capsys):
    code, out = run(capsys, ["forbidden", "--d", "3"])
    assert code == 0
    assert "3^6 * 7^3" in out


def test_forbidden_json_round_trip(capsys):
    code, out = run(capsys, ["forbidden", "--d", "4", "--format", "json"])
    profiles = cli.parse_json(out, "forbidden").profiles
    assert [str(p) for p in profiles] == ["2^11,5^3"]


# Edits of `forbidden --d 6 --format json` that no enumeration gives: each must be rejected.
FORBIDDEN_EDITS = {
    # 2^9,7^3 is admissible at d = 6: its forced degree 2 * 3 divides 6
    "added": lambda profiles: profiles.append([{"p": 2, "e": 9}, {"p": 7, "e": 3}]),
    "dropped": lambda profiles: profiles.pop(),
    "changed-exponent": lambda profiles: profiles[0][0].update(e=11),
}


@pytest.mark.parametrize("edit", FORBIDDEN_EDITS.values(), ids=FORBIDDEN_EDITS.keys())
def test_forbidden_json_with_edited_profiles_is_rejected(capsys, edit):
    code, out = run(capsys, ["forbidden", "--d", "6", "--format", "json"])
    doc = json.loads(out)
    assert [str(profile) for profile in cli.parse_json(out, "forbidden").profiles] == [
        "2^9,5^3", "2^9,13^3", "3^6,7^3", "3^6,13^3", "5^3,13^3", "7^3,13^3"
    ]
    edit(doc["profiles"])
    with pytest.raises(ValueError, match="^field 'profiles' does not match"):
        cli.parse_json(json.dumps(doc), "forbidden")


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


def test_genus2_inadmissible_halved_profile(capsys):
    code, out = run(capsys, ["genus2", "5^6,13^6"])
    assert code == 0
    assert "warning: halved profile is inadmissible in dimension 2; no such surface exists" in out
    code, out = run(capsys, ["genus2", "5^6,13^6", "--format", "json"])
    assert code == 0
    assert json.loads(out)["analysis"]["determination"] == "inadmissible"
    assert cli.parse_json(out, "genus2").analysis.determination is Determination.INADMISSIBLE


def test_genus2_rejects_odd_exponent(capsys):
    code = cli.main(["genus2", "5^5"])
    assert code == 1
    assert "odd exponent" in capsys.readouterr().err


def test_genus2_json_round_trip(capsys):
    code, out = run(capsys, ["genus2", "2^18", "--format", "json"])
    report = cli.parse_json(out, "genus2")
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
    witness = cli.parse_json(out, "sharpness")
    assert (witness.status, witness.level) == ("sharp", 12032)


def test_sharpness_network_failure_exits_1(capsys, monkeypatch):
    from test_lmfdb import refusing_url, spy_opens

    opened = spy_opens(monkeypatch)
    with refusing_url() as base:
        code = cli.main(["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--base-url", base])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: request to {base}/api/mf_newforms/ failed: ")
    assert "connection refused" in captured.err.lower()
    assert len(opened) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--p", "3", "--d", "9", "--budget", "100", "--offline"],
        ["table", "--dmax", "2", "--annotate", "--offline"],
    ],
    ids=["sharpness", "table-annotate"],
)
def test_corrupt_cache_is_an_error_line(capsys, tmp_path, argv):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    code = cli.main([*argv, "--cache", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}:1: not valid JSON: ")


def test_cache_with_invalid_utf8_is_an_error_line(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    good = b'{"level": 1, "weight": 2, "char_trivial": true, "dims": [1], "fetched_at": "x"}\n'
    bad.write_bytes(good + good.replace(b'"x"', b'"\xff"'))
    code = cli.main(["sharpness", "--p", "3", "--d", "9", "--budget", "100", "--offline", "--cache", str(bad)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {bad}:2: not valid UTF-8\n")


def test_cache_path_that_cannot_be_opened_is_an_error_line(capsys, tmp_path):
    code = cli.main(["sharpness", "--p", "3", "--d", "9", "--budget", "100", "--offline", "--cache", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


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


def test_verify_box_past_the_limit_is_an_error(capsys):
    assert cli.main(["verify", "--pmax", "1000", "--dmax", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify over 168 primes and d <= 100000 checks 17200000 cells, more than 1000000\n"


def test_verify_json(capsys):
    code, out = run(capsys, ["verify", "--pmax", "19", "--dmax", "10", "--format", "json"])
    results = cli.parse_json(out, "verify").results
    assert all(result.ok for result in results)


def test_verify_nonzero_exit_on_failure(capsys, monkeypatch):
    from rmbounds.verify import PropertyResult

    broken = [PropertyResult(name="synthetic", ok=False, cases=1, counterexample="p=2, d=1")]
    monkeypatch.setattr(cli.verify, "run_all", lambda p_max, d_max: broken)
    code, out = run(capsys, ["verify", "--pmax", "2", "--dmax", "1"])
    assert code == 1
    assert "FAIL synthetic: counterexample p=2, d=1" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_failure_exits_1_in_every_format(capsys, monkeypatch, fmt):
    from rmbounds.verify import PropertyResult

    broken = [PropertyResult(name="synthetic", ok=False, cases=1, counterexample="p=2, d=1")]
    monkeypatch.setattr(cli.verify, "run_all", lambda p_max, d_max: broken)
    code, out = run(capsys, ["verify", "--pmax", "2", "--dmax", "1", "--format", fmt])
    assert code == 1
    assert "synthetic" in out


# -- json round-trips ---------------------------------------------------------------


def annotated_table(d_max, p_max, budget):
    witnesses = OrbitDimClient(offline=True).annotate_table(d_max, budget, p_max=p_max)
    sharpness = {key: witness.status for key, witness in witnesses.items()}
    return render_table(d_max, p_max, sharpness=sharpness, include_trivial=True)


# (argv without --format json, the in-process result its json parses back to); a forbidden or
# verify result is a tuple of the command's inputs and the library's answer
ROUND_TRIPS = [
    (["bound", "--p", "2", "--d", "8"], lambda: BoundTriple.compute(2, 8)),
    (["table", "--dmax", "10", "--pmax", "19"], lambda: render_table(10, 19)),
    (["table", "--dmax", "6", "--pmax", "13", "--full"], lambda: render_table(6, 13, include_trivial=True)),
    (
        ["table", "--dmax", "4", "--pmax", "7", "--full", "--annotate", "--offline", "--budget", "20000"],
        lambda: annotated_table(4, 7, 20000),
    ),
    (["profile", "--d", "4", "2^9,5^3"], lambda: analyze_profile({2: 9, 5: 3}, 4)),
    (["profile", "--d", "4", ""], lambda: analyze_profile({}, 4)),
    (
        ["profile", "--d", "720", "2^13,3^8,5^5,7^5,13^3"],
        lambda: analyze_profile({2: 13, 3: 8, 5: 5, 7: 5, 13: 3}, 720),
    ),
    (["profile", "--d", "2", "2^14000"], lambda: analyze_profile({2: 14000}, 2)),
    (["forbidden", "--d", "96", "--max-entries", "4"], lambda: (96, 19, 4, False, enumerate_forbidden(96, 19, 4))),
    (
        ["forbidden", "--d", "6", "--pmax", "200", "--max-entries", "3", "--include-singletons"],
        lambda: (6, 200, 3, True, enumerate_forbidden(6, 200, 3, include_singletons=True)),
    ),
    (["genus2", "5^6"], lambda: genus2_rm_analysis({5: 6})),
    (["genus2", "2^22"], lambda: genus2_rm_analysis({2: 22})),
    (["genus2", "3^4,5^2"], lambda: genus2_rm_analysis({3: 4, 5: 2})),
    (
        ["sharpness", "--p", "3", "--d", "9", "--budget", "20000", "--offline"],
        lambda: OrbitDimClient(offline=True).sharpness_scan(3, 9, 20000),
    ),
    (
        ["sharpness", "--p", "11", "--d", "10", "--budget", "10000", "--offline"],
        lambda: OrbitDimClient(offline=True).sharpness_scan(11, 10, 10000),
    ),
    (
        ["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--offline"],
        lambda: OrbitDimClient(offline=True).sharpness_scan(13, 6, 20000),
    ),
    (["verify", "--pmax", "19", "--dmax", "10"], lambda: (19, 10, verify.run_all(p_max=19, d_max=10))),
]


@pytest.mark.parametrize("argv, expected", ROUND_TRIPS, ids=[" ".join(argv) for argv, _ in ROUND_TRIPS])
def test_json_parses_back_to_the_in_process_result(capsys, argv, expected):
    code, out = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert cli.parse_json(out, argv[0]) == cli.parse_json(out) == expected()


@pytest.mark.parametrize("d_max", range(1, 13))
def test_table_and_annotate_table_hold_the_same_grid(d_max):
    client = OrbitDimClient(offline=True)
    for p_max in (2, 3, 5, 13, 19, 31):
        witnesses = client.annotate_table(d_max, 20000, p_max=p_max)
        assert list(witnesses) == [(triple.p, triple.d) for triple, _ in render_table(d_max, p_max).cells]
        full = render_table(d_max, p_max, include_trivial=True)
        assert [(triple.d, triple.p) for triple, _ in full.cells] == [(d, p) for d in range(1, d_max + 1) for p in full.primes]
        sharpness = {key: witness.status for key, witness in witnesses.items()}
        for include_trivial in (False, True):
            for flags in (None, sharpness):
                table = render_table(d_max, p_max, flags, include_trivial)
                assert cli.parse_json(json.dumps({"command": "table", **table.to_json_dict()})) == table
    assert list(client.annotate_table(d_max, 20000)) == list(client.annotate_table(d_max, 20000, p_max=2 * d_max + 1))


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


# (argv without --format json, the path to one field, the value put there)
TAMPERED = [
    (["bound", "--p", "2", "--d", "8"], ["b0"], 15),
    (["bound", "--p", "2", "--d", "8"], ["b0"], 14.0),
    (["bound", "--p", "2", "--d", "8"], ["p"], 2.0),
    (["bound", "--p", "2", "--d", "1"], ["d"], True),
    (["bound", "--p", "2", "--d", "8"], ["gl2"], None),
    (["profile", "--d", "4", "2^9,5^3"], ["admissible"], False),
    (["profile", "--d", "4", "2^9,5^3"], ["refined_bounds", "2"], 11),
    (["profile", "--d", "4", "2^9,5^3"], ["d"], 4.0),
    (["profile", "--d", "4", "2^9,5^3"], ["profile", 0, "e"], 9.0),
    (["profile", "--d", "4", "2^9,5^3"], ["forced", "components", 0, "r"], 10**20),
    (["genus2", "5^6"], ["simple"], False),
    (["genus2", "5^6"], ["field"], {"p": 7, "r": 1, "degree": 3, "name": "Q(zeta_7)^+"}),
    (["genus2", "5^6"], ["profile", 0, "p"], True),
    (["table", "--dmax", "3", "--pmax", "7"], ["cells", 0, "display"], "9 (8)"),
    (["table", "--dmax", "3", "--pmax", "7"], ["cells", 0, "bk_prime"], 0),
    (["table", "--dmax", "3", "--pmax", "7"], ["cells", 0, "sharpness"], "sharp"),
    (["table", "--dmax", "3", "--pmax", "7", "--annotate", "--offline"], ["cells", 0, "sharpness"], "bogus"),
    # which cells are sharp is database data; none_found is a scan status that no table cell carries
    (["table", "--dmax", "3", "--pmax", "7", "--annotate", "--offline"], ["cells", 0, "sharpness"], "none_found"),
    (["table", "--dmax", "3", "--pmax", "7"], ["cells", 0, "p"], 2.0),
    (["table", "--dmax", "3", "--pmax", "7"], ["cells", 0, "d"], True),
    (["table", "--dmax", "3", "--pmax", "7"], ["d_max"], 4),
    (["table", "--dmax", "3", "--pmax", "7"], ["annotated"], 0),
    # forbidden profiles are recomputed from the inputs, which are checked as the flags are
    *(
        (["forbidden", "--d", "6"], path, value)
        for path, value in [
            (["profiles", 0, 0, "e"], 10), (["d"], 4), (["d"], 6.0), (["d"], 0), (["prime_bound"], 11),
            (["prime_bound"], 0), (["prime_bound"], 10**11), (["prime_bound"], 19.0), (["max_entries"], 1),
            (["max_entries"], 0), (["max_entries"], True), (["include_singletons"], True),
            (["include_singletons"], 0),
        ]
    ),
    # a sharp witness at level 12032 = 2^8 * 47, B0(2, 7) = 8
    *(
        (["sharpness", "--p", "2", "--d", "7", "--budget", "16384", "--offline"], [key], value)
        for key, value in [
            ("p", 3), ("p", 4), ("p", 2.0), ("p", True), ("d", 8), ("d", 0), ("d", True),
            ("exponent_attained", 7), ("exponent_attained", 8.0), ("exponent_attained", None),
            ("level", 12033), ("level", 6016), ("level", 0), ("level", "12032"), ("level", None),
            ("status", "almost_sharp"), ("status", "none_found"), ("status", "bogus"),
        ]
    ),
    # an almost_sharp witness at level 1331 = 11^3, B0(11, 10) = 4
    (["sharpness", "--p", "11", "--d", "10", "--budget", "10000", "--offline"], ["status"], "sharp"),
    (["sharpness", "--p", "11", "--d", "10", "--budget", "10000", "--offline"], ["exponent_attained"], 4),
    # a none_found witness
    (["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--offline"], ["exponent_attained"], 4),
    (["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--offline"], ["level"], 13**4),
    (["sharpness", "--p", "13", "--d", "6", "--budget", "20000", "--offline"], ["status"], "sharp"),
    # verify results: ok must be a bool that is true exactly when there is no counterexample
    *(
        (["verify", "--pmax", "2", "--dmax", "1"], path, value)
        for path, value in [
            (["results", 0, "counterexample"], "p=2"), (["results", 0, "ok"], False), (["results", 0, "ok"], 1),
            (["results", 0, "cases"], -1), (["results", 0, "cases"], True), (["results", 0, "cases"], 2.0),
            (["results", 0, "name"], 3), (["results", 0, "extra"], 1), (["ok"], False),
        ]
    ),
    # verify results are recomputed by run_all from the document's p_max and d_max
    *(
        (["verify", "--pmax", "19", "--dmax", "10"], path, value)
        for path, value in [(["p_max"], 7), (["results", 0, "cases"], 5), (["results", 4, "name"], "made_up")]
    ),
]


@pytest.mark.parametrize(
    "argv, path, value", TAMPERED, ids=[f"{argv[0]}-{'.'.join(map(str, path))}={value!r}" for argv, path, value in TAMPERED]
)
def test_json_with_one_changed_field_is_rejected(capsys, argv, path, value):
    code, out = run(capsys, [*argv, "--format", "json"])
    doc = json.loads(out)
    set_path(doc, path, value)
    with pytest.raises(ValueError):
        cli.parse_json(json.dumps(doc), argv[0])


# one document of each command, argv without --format json
DOCUMENTS = [
    ["bound", "--p", "2", "--d", "8"],
    ["table", "--dmax", "3", "--pmax", "7"],
    ["profile", "--d", "4", "2^9,5^3"],
    ["forbidden", "--d", "6"],
    ["genus2", "5^6"],
    ["sharpness", "--p", "2", "--d", "7", "--budget", "16384", "--offline"],
    ["verify", "--pmax", "2", "--dmax", "1"],
]


@pytest.mark.parametrize("argv", DOCUMENTS, ids=[argv[0] for argv in DOCUMENTS])
def test_json_with_an_extra_field_is_rejected(capsys, argv):
    code, out = run(capsys, [*argv, "--format", "json"])
    doc = {**json.loads(out), "extra": None}
    with pytest.raises(ValueError, match="^field 'extra' does not match"):
        cli.parse_json(json.dumps(doc), argv[0])


@pytest.mark.parametrize("command", ["relabelled", "missing"])
@pytest.mark.parametrize("argv", DOCUMENTS, ids=[argv[0] for argv in DOCUMENTS])
def test_json_with_another_command_or_none_is_rejected(capsys, argv, command):
    code, out = run(capsys, [*argv, "--format", "json"])
    doc = json.loads(out)
    if command == "missing":
        del doc["command"]
    else:
        doc["command"] = "bound" if argv[0] == "verify" else "verify"
    with pytest.raises(ValueError, match="^field 'command' does not match"):
        cli.parse_json(json.dumps(doc), argv[0])


@pytest.mark.parametrize("command", ["nope", None, ["bound"]], ids=["unknown", "missing", "not-a-string"])
def test_parse_json_without_a_known_command_names_the_known_ones(capsys, command):
    code, out = run(capsys, ["bound", "--p", "2", "--d", "8", "--format", "json"])
    doc = {**json.loads(out), "command": command}
    if command is None:
        del doc["command"]
    with pytest.raises(ValueError, match="expected one of bound, table, profile, forbidden, genus2, sharpness, verify$"):
        cli.parse_json(json.dumps(doc))


def test_commands_parser_and_json_readers_name_the_same_commands():
    # parse_json reads a document through the COMMANDS row it names, so the rows are the json readers.
    subparsers = next(action for action in cli.build_parser()._actions if action.dest == "command")
    assert list(cli.COMMANDS) == list(subparsers.choices)


# Each subcommand's actions, in order: (option strings, dest, default, required, choices, help, nargs).
# Argparse's help layout differs between Python versions; its actions do not.
_HELP = (("-h", "--help"), "help", "==SUPPRESS==", False, None, "show this help message and exit", 0)
_ORBIT_DATA = [
    (("--cache",), "cache", None, False, None, "path to the JSON-lines cache file", None),
    (("--base-url",), "base_url", "https://www.lmfdb.org", False, None, "database API base URL", None),
    (("--offline",), "offline", False, False, None, "never touch the network", 0),
    (("--strict",), "strict", False, False, None, "fail instead of skipping unavailable levels", 0),
]
_FORMAT = (("--format",), "format", "plain", False, ("plain", "csv", "json"), None, None)
SUBCOMMAND_ACTIONS = {
    "bound": [(("--p",), "p", None, True, None, None, None), (("--d",), "d", None, True, None, None, None)],
    "table": [
        (("--dmax",), "dmax", None, True, None, None, None),
        (("--pmax",), "pmax", 19, False, None, None, None),
        (("--full",), "full", False, False, None, "include the trivial cells with p > 2d + 1", 0),
        (("--annotate",), "annotate", False, False, None, "merge sharpness flags from orbit data", 0),
        (("--budget",), "budget", 10000, False, None, "largest level scanned", None),
        *_ORBIT_DATA,
    ],
    "profile": [
        (("--d",), "d", None, True, None, None, None),
        ((), "profile", None, True, None, 'prime-power profile, e.g. "2^9,5^3"', None),
    ],
    "forbidden": [
        (("--d",), "d", None, True, None, None, None),
        (("--pmax",), "pmax", 19, False, None, None, None),
        (("--max-entries",), "max_entries", 2, False, None, None, None),
        (("--include-singletons",), "include_singletons", False, False, None, None, 0),
    ],
    "genus2": [((), "profile", None, True, None, 'conductor valuations, e.g. "5^6"', None)],
    "sharpness": [
        (("--p",), "p", None, True, None, None, None),
        (("--d",), "d", None, True, None, None, None),
        (("--budget",), "budget", None, True, None, None, None),
        *_ORBIT_DATA,
    ],
    "verify": [(("--pmax",), "pmax", 1000, False, None, None, None), (("--dmax",), "dmax", 100, False, None, None, None)],
}


def test_each_subcommand_has_its_flags_then_the_shared_ones_in_order():
    subparsers = next(action for action in cli.build_parser()._actions if action.dest == "command")
    assert list(subparsers.choices) == list(SUBCOMMAND_ACTIONS)
    for name, parser in subparsers.choices.items():
        actions = [
            (tuple(a.option_strings), a.dest, a.default, a.required, a.choices and tuple(a.choices), a.help, a.nargs)
            for a in parser._actions
        ]
        assert actions == [_HELP, *SUBCOMMAND_ACTIONS[name], _FORMAT], name


@pytest.mark.parametrize("argv", DOCUMENTS, ids=[argv[0] for argv in DOCUMENTS])
def test_json_output_renders_no_lines(capsys, monkeypatch, argv):
    def must_not_render(result, args):
        raise AssertionError("the csv and plain lines were built for a json run")

    monkeypatch.setitem(cli.COMMANDS, argv[0], cli.COMMANDS[argv[0]]._replace(lines=must_not_render))
    code, out = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)["command"] == argv[0]


# The renderers each format must not call: csv writes rows, plain prints lines, json prints its json document.
OTHER_RENDERERS = {"plain": ("rows", "json"), "csv": ("lines", "json"), "json": ("rows", "lines")}


@pytest.mark.parametrize("fmt", OTHER_RENDERERS)
@pytest.mark.parametrize("argv", DOCUMENTS, ids=[argv[0] for argv in DOCUMENTS])
def test_each_format_calls_only_its_own_renderer(capsys, monkeypatch, argv, fmt):
    def must_not_render(*args):
        raise AssertionError(f"another format's renderer ran for a {fmt} run")

    expected = run(capsys, [*argv, "--format", fmt])
    row = cli.COMMANDS[argv[0]]._replace(**dict.fromkeys(OTHER_RENDERERS[fmt], must_not_render))
    monkeypatch.setitem(cli.COMMANDS, argv[0], row)
    assert run(capsys, [*argv, "--format", fmt]) == expected
    assert expected[0] == 0


@pytest.mark.parametrize(
    "command, text",
    [
        ("bound", '{"p": 2}'),
        ("bound", "[2, 8]"),
        ("profile", '{"d": 4, "profile": 5}'),
        ("genus2", '{"profile": [[5, 6]]}'),
        ("table", '{"d_max": 1, "p_max": 3, "annotated": false, "cells": [{"p": "2", "d": 1}]}'),
        ("verify", "[]"),
        ("verify", "{}"),
        ("verify", '{"ok": true, "results": [5]}'),
        ("forbidden", "{}"),
        ("forbidden", '{"profiles": [5]}'),
        *(("sharpness", text) for text in ['{"p": 2}', "[2, 7]", "null", '"sharp"']),
    ],
)
def test_malformed_json_is_a_value_error(command, text):
    with pytest.raises(ValueError, match="^not a command's json output: "):
        cli.parse_json(text, command)


def test_sharpness_json_contradicting_its_bound_is_rejected():
    text = '{"p": 2, "d": 7, "exponent_attained": 3, "level": 5, "status": "sharp"}'
    with pytest.raises(ValueError, match=r"^v_2\(5\) = 0 attains neither B0\(2,7\) = 8 nor 7$"):
        cli.parse_json(text, "sharpness")


def test_table_json_with_a_cell_dropped_is_rejected(capsys):
    code, out = run(capsys, ["table", "--dmax", "3", "--pmax", "7", "--format", "json"])
    doc = json.loads(out)
    del doc["cells"][-1]
    with pytest.raises(ValueError, match="^field 'cells' does not match"):
        cli.parse_json(json.dumps(doc), "table")


@pytest.mark.parametrize("annotate", [False, True], ids=["plain", "annotated"])
def test_table_json_is_what_json_dumps_prints(capsys, monkeypatch, annotate):
    tables = []
    row = cli.COMMANDS["table"]  # each table main prints is recorded
    monkeypatch.setitem(cli.COMMANDS, "table", row._replace(run=lambda args: tables.append(row.run(args)) or tables[-1]))
    flags = set()
    for d_max in range(1, 13):
        for p_max in (2, 3, 19, 97):
            for full in ([], ["--full"]):
                extra = ["--annotate", "--offline", "--budget", "20000"] if annotate else []
                argv = ["table", "--dmax", str(d_max), "--pmax", str(p_max), *full, *extra, "--format", "json"]
                code, out = run(capsys, argv)
                expected = json.dumps({"command": "table", **tables[-1].to_json_dict()}, indent=2)
                assert (code, out) == (0, expected + "\n"), argv
                flags |= {sharpness for _, sharpness in tables[-1].cells}
    assert flags == ({"sharp", "almost_sharp", "unknown"} if annotate else {"unknown"})


# -- one parser, per-call logging -------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_calls_the_command_bound_when_it_runs(capsys, monkeypatch):
    argv = ["table", "--dmax", "2"]
    assert run(capsys, argv)[0] == 0  # the parser exists before the rebinding
    called = []
    row = cli.COMMANDS["table"]
    monkeypatch.setitem(cli.COMMANDS, "table", row._replace(run=lambda args: called.append(args.dmax) or row.run(args)))
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
def test_main_calls_share_no_parse_state(capsys, first, second):
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

"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Runtime-limited criteria measure the core computation with perf_counter and
assert the stated budget.
"""
from __future__ import annotations

import time

from rmbounds import cli, verify
from rmbounds.arith import primes_up_to
from rmbounds.bounds import b0_bound, bk_prime_bound
from rmbounds.cyclo import ExponentProfile, analyze_profile, enumerate_forbidden, genus2_rm_analysis
from rmbounds.lmfdb import OrbitDimCache, OrbitDimClient

BUDGET_COVERING_FIXTURES = 20000


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


# -- 1. table reproduction ------------------------------------------------------


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["table", "--dmax", "10", "--pmax", "19", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    table = cli.parse_json(out, "table")

    ok = code == 0 and elapsed < 1.0
    cells = {(triple.d, triple.p): triple for triple, _ in table.cells}
    ok &= set(cells) == set(verify.REFERENCE_GRID_D10)
    for (d, p), (bp, b0) in verify.REFERENCE_GRID_D10.items():
        triple = cells[(d, p)]
        ok &= (triple.bk_prime, triple.b0) == (bp, b0)
    ok &= bk_prime_bound(2, 8) == 14
    ok &= bk_prime_bound(3, 9) == 9
    ok &= bk_prime_bound(5, 10) == 6
    ok &= b0_bound(3, 10) == 5
    ok &= b0_bound(2, 5) == 8
    with capsys.disabled():
        _report("1 table reproduction", ok, f"{elapsed:.3f}s")
    assert ok


# -- 2. bound comparison ---------------------------------------------------------


def test_criterion_2_bound_comparison(capsys):
    start = time.perf_counter()
    results = [
        verify.check("b0_le_bk_prime", p_max=1000, d_max=100),
        verify.check("equality_when_p_ge_2d_plus_1", p_max=1000, d_max=100),
        verify.check("strict_when_p_ge_5_nondivisor", p_max=1000, d_max=100),
        verify.check("strict_when_p_le_3_nondivisor", d_max=100),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in results) and elapsed < 10.0
    detail = f"{sum(r.cases for r in results)} cases, {elapsed:.3f}s"
    with capsys.disabled():
        _report("2 bound comparison", ok, detail)
    assert ok, [r.counterexample for r in results if not r.ok]


# -- 3. lambda identities ---------------------------------------------------------


def test_criterion_3_lambda_identities(capsys):
    start = time.perf_counter()
    results = [
        verify.check("lambda_zero_iff_below_p", p_max=50),
        verify.check("lambda_lower_bound", p_max=50),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in results) and elapsed < 1.0
    with capsys.disabled():
        _report("3 lambda identities", ok, f"{sum(r.cases for r in results)} cases, {elapsed:.3f}s")
    assert ok, [r.counterexample for r in results if not r.ok]


# -- 4. closed form vs exponent-scan oracle ---------------------------------------


def test_criterion_4_oracle_equivalence(capsys):
    start = time.perf_counter()
    result = verify.check("b0_equals_forced_degree_oracle", p_max=200, d_max=64)
    elapsed = time.perf_counter() - start
    ok = result.ok and elapsed < 5.0
    with capsys.disabled():
        _report("4 bound oracle equivalence", ok, f"{result.cases} cases, {elapsed:.3f}s")
    assert ok, result.counterexample


# -- 5. dimension 2..6 case regression ---------------------------------------------

# Frozen reference lists of minimal forbidden pairs (primes <= 19), in the
# library's order; tests/test_forbidden_oracle.py reproduces each of them by
# brute force.
REFERENCE_FORBIDDEN_PAIRS = {
    2: ["2^9,5^3"],
    3: ["3^6,7^3"],
    4: ["2^11,5^3"],
    6: ["2^9,5^3", "2^9,13^3", "3^6,7^3", "3^6,13^3", "5^3,13^3", "7^3,13^3"],
}

# The d = 6 list as first frozen here, recorded as the paper's table (PAPER.md
# holds only the abstract, so this repo cannot confirm that).  It omits
# 5^3,13^3: 5^3 forces Q(sqrt(5)) (degree 2) and 13^3 forces Q(zeta_13)^+
# (degree 6), linearly disjoint, so the forced degree is 12, which does not
# divide 6 -- the argument that forbids 7^3,13^3.  5^2 and 13^2 force nothing
# and 5^3, 13^3 are each admissible alone, so the pair is minimal.  Kept as a
# recorded claim, not as the reference: see CHANGES.md, decisions ledger, D1.
FIVE_PAIR_LIST_D6 = ["2^9,5^3", "2^9,13^3", "3^6,7^3", "3^6,13^3", "7^3,13^3"]

FORCED_FIELD_CASES = [
    (2, "2^9", "Q(sqrt(2))", True),
    (2, "5^3", "Q(sqrt(5))", True),
    (3, "3^6", "Q(zeta_9)^+", True),
    (3, "7^3", "Q(zeta_7)^+", True),
    (4, "2^11", "Q(zeta_16)^+", True),
    (4, "2^9", "Q(sqrt(2))", False),
    (4, "5^3", "Q(sqrt(5))", False),
    (4, "2^9,5^3", "Q(sqrt(2)) * Q(sqrt(5))", True),
    (5, "11^3", "Q(zeta_11)^+", True),
    (6, "2^9,3^6", "Q(sqrt(2)) * Q(zeta_9)^+", True),
    (6, "2^9,7^3", "Q(sqrt(2)) * Q(zeta_7)^+", True),
    (6, "3^6,5^3", "Q(sqrt(5)) * Q(zeta_9)^+", True),
    (6, "5^3,7^3", "Q(sqrt(5)) * Q(zeta_7)^+", True),
    (6, "13^3", "Q(zeta_13)^+", True),
]

IMPOSSIBLE_CASES = [
    (2, "2^9,5^3"),
    (3, "3^6,7^3"),
    (4, "2^11,5^3"),
    (6, "2^9,5^3"),
    (6, "2^9,13^3"),
    (6, "3^6,7^3"),
    (6, "3^6,13^3"),
    (6, "5^3,13^3"),
    (6, "7^3,13^3"),
]


def test_criterion_5a_forced_fields_and_impossibilities(capsys):
    start = time.perf_counter()
    ok = True
    for d, text, name, exact in FORCED_FIELD_CASES:
        report = analyze_profile(ExponentProfile.parse(text), d)
        ok &= report.admissible
        ok &= report.forced.name == name
        ok &= (report.determination.value == "exact_field") == exact
    for d, text in IMPOSSIBLE_CASES:
        ok &= not analyze_profile(ExponentProfile.parse(text), d).admissible
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        _report("5a forced-field regression", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_5b_forbidden_reference_lists(capsys):
    start = time.perf_counter()
    got = {d: [str(p) for p in enumerate_forbidden(d, 19, 2)] for d in REFERENCE_FORBIDDEN_PAIRS}
    elapsed = time.perf_counter() - start
    ok = got == REFERENCE_FORBIDDEN_PAIRS and elapsed < 1.0
    ok &= set(FIVE_PAIR_LIST_D6) <= set(got[6])
    detail = f"{elapsed:.3f}s"
    if not ok:
        extra = {
            d: sorted(set(got[d]) ^ set(REFERENCE_FORBIDDEN_PAIRS[d]))
            for d in REFERENCE_FORBIDDEN_PAIRS
            if got[d] != REFERENCE_FORBIDDEN_PAIRS[d]
        }
        detail = f"mismatch {extra}; see decisions ledger"
    with capsys.disabled():
        _report("5b forbidden-pair reference lists", ok, detail)
    assert ok, detail


# -- 6. genus-2 exclusion ------------------------------------------------------------


def test_criterion_6_genus2(capsys):
    r5 = genus2_rm_analysis({5: 6})
    r2 = genus2_rm_analysis({2: 18})
    r_open = genus2_rm_analysis({2: 16})
    ok = r5.simple is True and r5.field is not None and r5.field.name == "Q(sqrt(5))"
    ok &= r2.simple is True and r2.field is not None and r2.field.name == "Q(sqrt(2))"
    ok &= r_open.simple is None and r_open.field is None
    with capsys.disabled():
        _report("6 genus-2 analysis", ok)
    assert ok


# -- 7. offline fixture facts ----------------------------------------------------------


FIXTURE_FACTS = [
    (6859, 9),
    (1331, 10),
    (14641, 5),
    (19683, 9),
    (12032, 7),
    (14592, 9),
    (11264, 10),
    (16384, 8),
]


def test_criterion_7_fixture_levels_offline(capsys):
    client = OrbitDimClient(offline=True)
    start = time.perf_counter()
    ok = client.fetch_orbit_dims(243).dims == (1, 1, 2, 2, 3, 3)
    for level, dim in FIXTURE_FACTS:
        result = client.fetch_orbit_dims(level)
        ok &= dim in result.dims and result.source == "fixture"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        _report("7 offline fixtures", ok, f"{elapsed:.3f}s")
    assert ok


# -- 8. sharpness annotation --------------------------------------------------------------


EXPECTED_SHARP = {
    (2, 7): 12032,
    (2, 8): 16384,
    (2, 9): 14592,
    (2, 10): 11264,
    (3, 9): 19683,
    (11, 5): 14641,
}
EXPECTED_ALMOST = {(19, 9): 6859, (11, 10): 1331}
EXPECTED_OPEN = [(13, 6), (17, 8), (5, 10)]


def test_criterion_8_sharpness_annotation(capsys):
    client = OrbitDimClient(offline=True)
    witnesses = client.annotate_table(10, BUDGET_COVERING_FIXTURES)
    ok = True
    for key, level in EXPECTED_SHARP.items():
        witness = witnesses[key]
        ok &= witness.status == "sharp" and witness.level == level
        ok &= witness.exponent_attained == b0_bound(*key)
    for key, level in EXPECTED_ALMOST.items():
        witness = witnesses[key]
        ok &= witness.status == "almost_sharp" and witness.level == level
        ok &= witness.exponent_attained == b0_bound(*key) - 1
    for key in EXPECTED_OPEN:
        ok &= witnesses[key].status == "none_found"
    with capsys.disabled():
        _report("8 sharpness annotation", ok)
    assert ok


# -- 9. property suite ---------------------------------------------------------------------


def _downward_closure_sweep() -> bool:
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    exponent_menu = {p: sorted({1, 3, 6, 9, 11, b0_bound(p, 12)}) for p in primes}
    for d in range(1, 13):
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                for ep in exponent_menu[p]:
                    for eq in exponent_menu[q]:
                        if not analyze_profile({p: ep, q: eq}, d).admissible:
                            continue
                        for smaller in ({p: ep - 1, q: eq} if ep > 1 else {q: eq},
                                        {p: ep, q: eq - 1} if eq > 1 else {p: ep}):
                            if not analyze_profile(smaller, d).admissible:
                                return False
    return True


def test_criterion_9_property_suite(capsys, tmp_path):
    start = time.perf_counter()
    ok = _downward_closure_sweep()

    # minimality of every enumerated forbidden profile, by direct re-evaluation
    for d in (2, 3, 4, 6, 10):
        for profile in enumerate_forbidden(d, 19, 2):
            ok &= not analyze_profile(profile, d).admissible
            for p, _ in profile:
                ok &= analyze_profile(profile.without(p), d).admissible

    # single-prime boundary: b0 admissible, b0 + 1 not, across the full box
    for p in primes_up_to(200):
        for d in range(1, 65):
            cap = b0_bound(p, d)
            ok &= analyze_profile({p: cap}, d).admissible
            ok &= not analyze_profile({p: cap + 1}, d).admissible

    # cache round-trip identity
    path = tmp_path / "cache.jsonl"
    OrbitDimCache(path).put(4000, [5, 1], fetched_at="2026-01-01T00:00:00Z")
    replayed = OrbitDimClient(cache=OrbitDimCache(path), fixtures={}, offline=True).fetch_orbit_dims(4000)
    ok &= replayed.dims == (1, 5) and replayed.source == "cache"
    ok &= replayed.fetched_at == "2026-01-01T00:00:00Z"

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    with capsys.disabled():
        _report("9 property suite", ok, f"{elapsed:.3f}s")
    assert ok

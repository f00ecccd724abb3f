"""The public arith/bounds entry points and the cyclo degree kernel: values against independent
oracles, and their input checks.

Each public function checks its input once and hands the rest to an
unchecked kernel.  The oracles below share no code with ``rmbounds``: the
base-p digits come from the definition c_i = floor(m / p^i) mod p, and B0
and each entry's forced degree from the brute-force oracle in
``test_forbidden_oracle``.
"""
from __future__ import annotations

import pytest

from rmbounds import cyclo, verify
from rmbounds.arith import digits_base_p, lambda_p, real_cyclotomic_degree, valuation
from rmbounds.bounds import BoundTriple, b0_bound, bk_bound, bk_prime_bound, forced_subfield_exponent
from test_forbidden_oracle import forced_degree


def small_primes(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if all(n % q for q in range(2, n))]


def oracle_lambda(p: int, m: int) -> int:
    """sum of i * c_i * p^i with c_i = floor(m / p^i) mod p, taken straight from the definition."""
    total, i = 0, 0
    while p**i <= m:
        total += i * (m // p**i % p) * p**i
        i += 1
    return total


def oracle_triple(p: int, d: int) -> tuple[int, int, int]:
    """(B, B', B0): B from the Brumer-Kramer formula, B0 the largest e whose forced degree divides d.

    The forced degrees along one prime form a divisibility chain, so the scan
    stops at the first exponent whose degree does not divide d.
    """
    t = 2 * d // (p - 1)
    bk = 2 * d + p * t + (p - 1) * oracle_lambda(p, t)
    e = 1
    while d % forced_degree(p, e + 1) == 0:
        e += 1
    return bk, bk // d, e


def test_lambda_matches_digit_definition_small():
    for p in small_primes(50):
        for m in range(0, 2501):
            assert lambda_p(p, m) == oracle_lambda(p, m), (p, m)


@pytest.mark.parametrize("p", [2, 3, 1_000_003])
@pytest.mark.parametrize("m", [2**200, 2**200 - 1, 10**60, 10**60 + 7])
def test_lambda_matches_digit_definition_huge(p, m):
    assert lambda_p(p, m) == oracle_lambda(p, m)


TRIPLE_PRIMES = small_primes(50) + [101, 997, 7919, 65537, 999_983]
TRIPLE_DIMENSIONS = list(range(1, 41)) + [720, 5040, 32768, 499_991, 2**23, 3**14, 9_999_991, 10**7]


@pytest.mark.parametrize("p", TRIPLE_PRIMES)
def test_bound_triple_matches_formula_and_exponent_scan(p):
    for d in TRIPLE_DIMENSIONS:
        triple = BoundTriple.compute(p, d)
        assert (triple.p, triple.d) == (p, d)
        assert (triple.bk, triple.bk_prime, triple.b0) == oracle_triple(p, d), (p, d)


def test_entry_degree_matches_the_oracle():
    for p in small_primes(200):
        for e in range(61):
            assert cyclo._entry_degree(p, e) == forced_degree(p, e), (p, e)


@pytest.mark.parametrize("d", [1, 6, 96, 5040, 2**40])
def test_forbidden_profiles_sit_at_b0_and_at_the_first_exponent_of_each_degree(d):
    profiles = cyclo.enumerate_forbidden(d, 50, 2, include_singletons=True)
    singletons = [profile.entries[0] for profile in profiles if len(profile) == 1]
    assert singletons == [(p, b0_bound(p, d) + 1) for p in small_primes(50)]
    for profile in profiles:
        if len(profile) > 1:
            for p, e in profile:
                assert forced_degree(p, e - 1) < forced_degree(p, e), (d, profile)


def test_single_prime_boundary_builds_no_report(monkeypatch):
    calls = []
    monkeypatch.setattr(cyclo, "analyze_profile", lambda *args: calls.append(args))
    result = verify.check("single_prime_boundary", p_max=200, d_max=64)
    assert (result.ok, result.cases, calls) == (True, 2944, [])


def test_exponent_scan_reaches_the_divisor_cases():
    # (p - 1) | 2d for each of these, so B0 exceeds 2 and the scan does real work
    assert oracle_triple(999_983, 499_991)[2] == 4
    assert oracle_triple(65537, 2**23)[2] == 4
    assert oracle_triple(2, 2**23)[2] == 8 + 2 * 23
    assert oracle_triple(3, 3**14)[2] == 5 + 2 * 14


# (entry, arguments, message): the messages are those of the package before
# its kernels were split from the checks.
BAD_INPUTS = [
    (lambda_p, (4, 5), "4 is not prime"),
    (lambda_p, (1, 5), "1 is not prime"),
    (lambda_p, (5, -1), "m must be non-negative"),
    (lambda_p, (4, -1), "4 is not prime"),
    (digits_base_p, (4, 5), "4 is not prime"),
    (digits_base_p, (5, -1), "m must be non-negative"),
    (digits_base_p, (9, -1), "9 is not prime"),
    (valuation, (4, 8), "4 is not prime"),
    (valuation, (5, 0), "valuation of 0 is undefined; need n >= 1"),
    (valuation, (5, -3), "valuation of -3 is undefined; need n >= 1"),
    (valuation, (6, 0), "6 is not prime"),
    (real_cyclotomic_degree, (4, 1), "4 is not prime"),
    (real_cyclotomic_degree, (5, -1), "r must be non-negative"),
    (real_cyclotomic_degree, (0, -1), "0 is not prime"),
    (forced_subfield_exponent, (4, 3), "4 is not prime"),
    (forced_subfield_exponent, (5, -1), "exponent must be non-negative"),
    (forced_subfield_exponent, (9, -1), "9 is not prime"),
] + [
    # the second argument is an int only: a float or a bool once gave a wrong value
    (entry, args, f"{name} {args[1]!r} is not an integer")
    for entry, name in ((lambda_p, "m"), (digits_base_p, "m"), (valuation, "n"), (real_cyclotomic_degree, "r"),
                        (forced_subfield_exponent, "exponent"))
    for args in ((3, 10.0), (2, 5.0), (3, 1.5), (5, 3.0), (2, True))
] + [
    (entry, args, message)
    for entry in (bk_bound, bk_prime_bound, b0_bound, BoundTriple.compute)
    for args, message in [
        ((4, 1), "4 is not prime"),
        ((5, 0), "expected dimension >= 1, got 0"),
        ((4, 0), "4 is not prime"),
        ((7, -3), "expected dimension >= 1, got -3"),
        ((-7, 2), "-7 is not prime"),
        ((2.0, 8), "prime 2.0 is not an integer"),
        ((True, 8), "prime True is not an integer"),
        ((2, 8.0), "dimension 8.0 is not an integer"),
        ((2, True), "dimension True is not an integer"),
    ]
]


@pytest.mark.parametrize(
    "entry, args, message", BAD_INPUTS, ids=[f"{e.__qualname__}-{a[0]}-{a[1]}" for e, a, _ in BAD_INPUTS]
)
def test_public_entry_rejects_bad_input(entry, args, message):
    with pytest.raises(ValueError) as info:
        entry(*args)
    assert str(info.value) == message

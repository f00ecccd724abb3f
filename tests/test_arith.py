from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmbounds.arith import (
    digits_base_p,
    is_prime,
    lambda_p,
    primes_up_to,
    real_cyclotomic_degree,
    require_prime,
    valuation,
)

SMALL_PRIMES = primes_up_to(100)
primes = st.sampled_from(SMALL_PRIMES)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_carmichael_and_squares():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1729)
    assert not is_prime(25326001)
    assert is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) ** 2)


def test_is_prime_cache_is_bounded():
    # A long session calls is_prime on ever new integers; the cache keeps
    # at most this many of them.
    assert is_prime.cache_info().maxsize == 4096


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(19) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(1000)) == 168


def test_primes_up_to_matches_trial_division():
    by_trial = [n for n in range(2, 3001) if all(n % k for k in range(2, int(n**0.5) + 1))]
    for bound in range(3001):
        assert primes_up_to(bound) == [p for p in by_trial if p <= bound], bound
    assert primes_up_to(-1) == []
    assert len(primes_up_to(10**6)) == 78498


def test_require_prime_rejects_composites():
    with pytest.raises(ValueError):
        require_prime(6)


def test_valuation_examples():
    assert valuation(2, 512) == 9
    assert valuation(5, 125000) == 6
    assert valuation(3, 10) == 0


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        valuation(2, 0)


def test_digits_examples():
    assert digits_base_p(3, 4) == [1, 1]
    assert digits_base_p(2, 20) == [0, 0, 1, 0, 1]
    assert digits_base_p(5, 3) == [3]
    assert digits_base_p(7, 0) == []


def test_lambda_examples():
    assert lambda_p(5, 3) == 0
    assert lambda_p(2, 4) == 8
    assert lambda_p(3, 4) == 3
    assert lambda_p(2, 0) == 0


def test_real_cyclotomic_degree_examples():
    assert real_cyclotomic_degree(2, 3) == 2
    assert real_cyclotomic_degree(3, 2) == 3
    assert real_cyclotomic_degree(7, 0) == 1
    # clamped trivial range
    assert real_cyclotomic_degree(2, 1) == 1
    assert real_cyclotomic_degree(2, 2) == 1
    assert real_cyclotomic_degree(3, 1) == 1
    assert real_cyclotomic_degree(5, 1) == 2
    assert real_cyclotomic_degree(13, 1) == 6
    assert real_cyclotomic_degree(2, 4) == 4


@given(p=primes, m=st.integers(min_value=0, max_value=10**9))
def test_digits_reconstruct(p, m):
    digits = digits_base_p(p, m)
    assert all(0 <= c < p for c in digits)
    assert sum(c * p**i for i, c in enumerate(digits)) == m
    if digits:
        assert digits[-1] != 0


@given(p=primes, k=st.integers(min_value=0, max_value=12), n=st.integers(min_value=1, max_value=10**6))
def test_valuation_additive(p, k, n):
    assert valuation(p, p**k * n) == k + valuation(p, n)


@given(p=primes, m=st.integers(min_value=0, max_value=10**6))
def test_lambda_zero_iff_small(p, m):
    assert (lambda_p(p, m) == 0) == (m < p)


@given(p=primes, m=st.integers(min_value=1, max_value=10**6))
def test_lambda_lower_bound(p, m):
    assert lambda_p(p, m) >= m - p + 1


@settings(max_examples=50)
@given(p=primes, r=st.integers(min_value=0, max_value=12))
def test_degree_monotone_and_chain(p, r):
    d0 = real_cyclotomic_degree(p, r)
    d1 = real_cyclotomic_degree(p, r + 1)
    assert d1 >= d0
    assert d1 % d0 == 0  # degrees along one prime form a divisibility chain

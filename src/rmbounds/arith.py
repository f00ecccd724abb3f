"""Exact integer primitives: valuations, base-p digits, the lambda_p sum,
and degrees of maximal real subfields of prime-power cyclotomic fields.

All functions operate on Python ints (arbitrary precision) and never wrap.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress

# Deterministic Miller-Rabin witness set, valid for all n < 3,317,044,064,679,887,385,961,981
# (Sorenson & Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

PMAX_LIMIT = 10**7  # the largest prime bound a public entry point sieves up to: bound + 1 bytes


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Uses trial division by the witnesses (the primes up to 37), then strong
    pseudoprime tests to those bases, a set proven correct below ~3.3e24.
    Inputs at or above that limit are rejected rather than answered
    probabilistically.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        raise ValueError(f"primality test is only deterministic below {_MR_DETERMINISTIC_LIMIT}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """Return value, raising ValueError unless it is an int (not a bool), >= minimum and <= maximum if given."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"expected {name} >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"expected {name} <= {maximum}, got {value}")
    return value


def require_prime(p: int) -> int:
    """Return p, raising ValueError unless it is an int (not a bool) and prime."""
    if not is_prime(require_int("prime", p)):
        raise ValueError(f"{p} is not prime")
    return p


def require_dimension(d: int) -> int:
    """Return d, raising ValueError unless it is an int (not a bool) and at least 1."""
    return require_int("dimension", d, 1)


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (sieve of Eratosthenes; 2 and then the odd bytes)."""
    if bound < 2:
        return []
    return [2, *compress(range(3, bound + 1, 2), _sieve(bound)[3::2])]


def _sieve(bound: int) -> bytearray:
    """Byte i is 1 exactly when i is prime, for 0 <= i <= bound."""
    if bound < 2:
        return bytearray()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((bound - i * i) // i + 1)
    return sieve


def valuation(p: int, n: int) -> int:
    """Largest k such that p**k divides n.

    Undefined (and rejected) for n = 0.
    """
    require_prime(p)
    if require_int("n", n) <= 0:
        raise ValueError(f"valuation of {n} is undefined; need n >= 1")
    return _valuation(p, n)


def _valuation(p: int, n: int) -> int:
    """valuation without the checks: p prime and n >= 1 are the caller's to ensure."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def digits_base_p(p: int, m: int) -> list[int]:
    """Little-endian base-p digits of m; empty list for m = 0."""
    require_prime(p)
    return _digits(p, require_int("m", m, 0))


def _digits(p: int, m: int) -> list[int]:
    """digits_base_p without the checks: p prime and m >= 0 are the caller's to ensure."""
    digits = []
    while m:
        digits.append(m % p)  # cheaper than divmod and unpacking its tuple
        m //= p
    return digits


def lambda_p(p: int, m: int) -> int:
    """Digit-weighted sum: for m = sum c_i p^i, returns sum i * c_i * p^i.

    Vanishes exactly when m < p, and satisfies lambda_p(m) >= m - p + 1
    for m >= 1.  lambda_p(0) = 0 (empty sum).
    """
    require_prime(p)
    return _lambda(p, require_int("m", m, 0))


def _lambda(p: int, m: int) -> int:
    """lambda_p without the checks, as the sum of floors sum_{j >= 1} p^j * floor(m / p^j).

    For m = sum c_i p^i, p^j * floor(m / p^j) = sum_{i >= j} c_i p^i, so each
    c_i p^i is counted once for each j = 1..i, i times in all.
    p prime and m >= 0 are the caller's to ensure.
    """
    total, power = 0, p
    q = m // p
    while q:
        total += power * q
        power *= p
        q //= p  # floor(floor(m / p^j) / p) = floor(m / p^(j + 1)), dividing by p, not by p^(j + 1)
    return total


def real_cyclotomic_degree(p: int, r: int) -> int:
    """Degree over Q of the maximal real subfield of the p^r-th cyclotomic field.

    Equals max(1, phi(p^r) / 2): the field is Q itself for r = 0, for
    p = 2 with r <= 2, and for p = 3 with r <= 1.
    """
    require_prime(p)
    return _real_cyclotomic_degree(p, require_int("r", r, 0))


def _real_cyclotomic_degree(p: int, r: int) -> int:
    """real_cyclotomic_degree without the checks: p prime and r >= 0 are the caller's to ensure."""
    if r == 0:
        return 1
    if p == 2:
        return 1 if r <= 2 else 2 ** (r - 2)
    return p ** (r - 1) * (p - 1) // 2

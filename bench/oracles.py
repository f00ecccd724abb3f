"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports ``rmbounds``: every quantity is recomputed from its
definition by direct search, so a wrong library answer cannot be confirmed
by the library itself.

* forced degree of v_p(N) = e: phi(p^r)/2 (at least 1) with
  r = ceil(e/2 - v_p(3)/2) - 1 - v_p(2) above the thresholds (e >= 3 for
  odd p, e >= 9 for p = 2);
* B0(p, d): the largest e whose forced degree divides d, found by scanning e;
* B(p, d) and B'(p, d) from the Brumer-Kramer formula with an inline
  digit loop;
* admissibility: the product of forced degrees divides d;
* minimal forbidden profiles: every profile over the candidate primes,
  kept when it is inadmissible and each proper sub-profile is admissible;
* sharpness witnesses: a plain walk over the levels with the fixture
  records first and the seeded orbit data after.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "rmbounds" / "data" / "fixtures.jsonl"

SHARP, ALMOST_SHARP, NONE_FOUND = "sharp", "almost_sharp", "none_found"


def primes_to(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if all(n % q for q in range(2, math.isqrt(n) + 1))]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    if n >= 3_215_031_751:
        raise ValueError("outside the exact range of this test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def forced_degree(p: int, e: int) -> int:
    if e < (9 if p == 2 else 3):
        return 1
    r = -(-(e - (p == 3)) // 2) - 1 - (p == 2)
    if r == 0:
        return 1
    return max(1, p ** (r - 1) * (p - 1) // 2)


def b0(p: int, d: int) -> int:
    e = 1
    while d % forced_degree(p, e + 1) == 0:
        e += 1
    return e


def bound_triple(p: int, d: int) -> tuple[int, int, int]:
    t = 2 * d // (p - 1)
    lam, i, m = 0, 0, t
    while m:
        m, c = divmod(m, p)
        lam += i * c * p**i
        i += 1
    bk = 2 * d + p * t + (p - 1) * lam
    return bk, bk // d, b0(p, d)


def profile_degree(entries: dict[int, int]) -> int:
    return math.prod(forced_degree(p, e) for p, e in entries.items())


def analysis(entries: dict[int, int], d: int) -> dict:
    """Admissibility, forced degree, residual degree and refined caps."""
    degree = profile_degree(entries)
    refined = {}
    for p in entries:
        rest = profile_degree({q: e for q, e in entries.items() if q != p})
        if d % rest == 0:
            refined[p] = b0(p, d // rest)
    admissible = d % degree == 0
    return {
        "admissible": admissible,
        "degree": degree,
        "residual": d // degree if admissible else None,
        "refined": refined,
    }


def _steps(p: int, d: int) -> list[tuple[int, int]]:
    """(least exponent, degree) for each degree > 1 at p that divides d."""
    steps, e, last = [], 1, 1
    while True:
        degree = forced_degree(p, e)
        if degree > d:
            return steps
        if degree != last:
            if d % degree:
                return steps
            steps.append((e, degree))
            last = degree
        e += 1


def minimal_forbidden(d: int, prime_bound: int, max_entries: int) -> list[tuple[tuple[int, int], ...]]:
    """Minimal inadmissible profiles with 2..max_entries primes, sorted like the library.

    Every entry of such a profile forces a degree dividing d (its singleton
    is a proper sub-profile), and sits at the least exponent forcing that
    degree.  Minimality is checked against every proper sub-profile: each
    entry kept, lowered to any smaller step, or dropped.
    """
    steps = {p: _steps(p, d) for p in primes_to(prime_bound)}
    candidates = [p for p in steps if steps[p]]
    found = []
    for k in range(2, max_entries + 1):
        for combo in itertools.combinations(candidates, k):
            for choice in itertools.product(*(steps[p] for p in combo)):
                if d % math.prod(g for _, g in choice) == 0:
                    continue
                lower = [[1] + [g for _, g in steps[p] if g <= chosen] for p, (_, chosen) in zip(combo, choice)]
                subs = itertools.product(*lower)
                full = tuple(g for _, g in choice)
                if all(d % math.prod(sub) == 0 for sub in subs if sub != full):
                    found.append(tuple((p, e) for p, (e, _) in zip(combo, choice)))
    return sorted(found, key=lambda entries: (len(entries), entries))


def fixture_dims() -> dict[int, tuple[int, ...]]:
    with open(FIXTURES, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {rec["level"]: tuple(rec["dims"]) for rec in records}


def scan_levels(p: int, d: int, budget: int) -> list[tuple[int, int, str]]:
    """(level, exponent, status) in the order a sharpness scan visits them.

    First the levels p^B0 * m, then p^(B0 - 1) * m, for m not divisible by p,
    up to the budget.
    """
    cap = b0(p, d)
    return [
        (level, exponent, status)
        for exponent, status in ((cap, SHARP), (cap - 1, ALMOST_SHARP))
        for level in range(p**exponent, budget + 1, p**exponent)
        if (level // p**exponent) % p
    ]


def witness(p: int, d: int, budget: int, dims_at, fixtures: dict[int, tuple[int, ...]], visited: set) -> tuple:
    """(status, exponent, level) of the first level p^e * m (p not dividing m) with a degree-d orbit.

    Adds every level looked at to ``visited``.
    """
    for level, exponent, status in scan_levels(p, d, budget):
        visited.add(level)
        dims = fixtures[level] if level in fixtures else dims_at(level)
        if d in dims:
            return status, exponent, level
    return NONE_FOUND, None, None


def table_witnesses(d_max: int, budget: int, dims_at, fixtures, visited: set) -> dict[tuple[int, int], tuple]:
    return {
        (p, d): witness(p, d, budget, dims_at, fixtures, visited)
        for d in range(1, d_max + 1)
        for p in primes_to(2 * d + 1)
    }

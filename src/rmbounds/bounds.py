"""Closed-form local conductor exponent bounds.

Three bounds on v_p(N) for a degree-d object at a prime p:

* ``bk_bound``        -- B(p, d), the classical Brumer-Kramer bound on the
                         full conductor exponent v_p(N^d) = d * v_p(N).
* ``bk_prime_bound``  -- B'(p, d) = floor(B(p, d) / d), the Brumer-Kramer
                         bound per dimension.
* ``b0_bound``        -- B0(p, d), the improved bound valid under maximal
                         real multiplication.

plus the exponent r(p, e) of the real cyclotomic subfield forced into the
rationality field by v_p(N) = e, and the table renderer that lays the
bounds out on a (d, p) grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress, count, takewhile
from math import isqrt
from typing import Iterator, NamedTuple

from .arith import (
    PMAX_LIMIT, _lambda, _sieve, _valuation, is_prime, primes_up_to, require_dimension, require_int, require_prime
)

SHARP = "sharp"
ALMOST_SHARP = "almost_sharp"
UNKNOWN = "unknown"
_MARKS = {SHARP: "!", ALMOST_SHARP: "*"}

# The most rows x prime columns render_table accepts: 10**5 rows at p_max = 19
# (8 primes).  A table's cells are built as they are printed, so this bounds
# time, not memory: at the limit a fresh `rmbounds table --dmax 100000` takes
# about 6 s in plain and 4 s in csv or json, in 17 MB, on a 2-core Xeon.
GRID_LIMIT = 800_000


def bk_bound(p: int, d: int) -> int:
    """Brumer-Kramer bound B(p, d) = 2d + p*t + (p-1)*lambda_p(t), t = floor(2d/(p-1))."""
    require_prime(p)
    require_dimension(d)
    return _bk(p, d)


def _bk(p: int, d: int) -> int:
    """bk_bound without the checks: p prime and d >= 1 are the caller's to ensure."""
    t = 2 * d // (p - 1)
    return 2 * d + p * t + (p - 1) * _lambda(p, t)


def bk_prime_bound(p: int, d: int) -> int:
    """Per-dimension Brumer-Kramer bound B'(p, d) = floor(B(p, d) / d).

    Equals 2 + floor((p*t + (p-1)*lambda_p(t)) / d), since B = 2d + X with X >= 0.
    """
    require_prime(p)
    require_dimension(d)
    return _bk(p, d) // d


def b0_bound(p: int, d: int) -> int:
    """Improved bound B0(p, d) on v_p(N) under maximal real multiplication.

    8 + 2*v_2(d) at p = 2; 5 + 2*v_3(d) at p = 3; 4 + 2*v_p(d) at p >= 5
    when (p - 1) | 2d; and 2 otherwise.
    """
    require_prime(p)
    require_dimension(d)
    return _b0(p, d)


def _b0(p: int, d: int) -> int:
    """b0_bound without the checks: p prime and d >= 1 are the caller's to ensure."""
    if p == 2:
        return 8 + 2 * _valuation(2, d)
    if p == 3:
        return 5 + 2 * _valuation(3, d)
    if (2 * d) % (p - 1) == 0:
        return 4 + 2 * _valuation(p, d)
    return 2


def _primes_b0_above_2(d: int, bound: int) -> list[int]:
    """The primes p <= bound with _b0(p, d) > 2, ascending: the primes q + 1 <= bound for the divisors q of 2d.

    2d is factored by trial division over one sieve of min(bound - 1,
    isqrt(2d)) bytes, stopping once a prime's square exceeds the part left;
    that part is then 1, a prime, or a product of primes above bound - 1,
    which divide no q <= bound - 1.
    """
    top = bound - 1
    divisors, rest = [1], 2 * d  # the divisors of 2d up to top, from its prime factors tried so far
    for q in compress(count(), _sieve(min(top, isqrt(rest)))):
        if q * q > rest:
            break
        if rest % q == 0:
            powers = []
            while rest % q == 0:
                rest //= q
                powers.append(q ** (len(powers) + 1))
            divisors += [m * k for m in divisors for k in powers if m * k <= top]
    if 1 < rest <= top:  # every prime up to its root was tried, so rest is prime
        divisors += [m * rest for m in divisors if m * rest <= top]
    return sorted(q + 1 for q in divisors if q <= top and is_prime(q + 1))


def forced_subfield_exponent(p: int, e: int) -> int:
    """Exponent r such that v_p(N) = e forces Q(zeta_{p^r})^+ into the rationality field.

    Returns 0 (no information) below the hypothesis thresholds: e < 3 for
    odd p, e < 9 for p = 2.  Otherwise r = ceil(e/2 - v_p(3)/2) - 1 - v_p(2),
    clamped below at 0.
    """
    require_prime(p)
    return _forced_exponent(p, require_int("exponent", e, 0))


def _forced_exponent(p: int, e: int) -> int:
    """forced_subfield_exponent without the checks: p prime and e >= 0 are the caller's to ensure."""
    if e < (9 if p == 2 else 3):
        return 0
    vp3 = 1 if p == 3 else 0
    vp2 = 1 if p == 2 else 0
    return max(0, (e - vp3 + 1) // 2 - 1 - vp2)


class BoundTriple(NamedTuple):
    """The three bounds for one (p, d) cell: a tuple, so it unpacks and compares like (p, d, bk, bk_prime, b0)."""

    p: int
    d: int
    bk: int
    bk_prime: int
    b0: int

    # A triple from its five values, built by tuple.__new__ without namedtuple's Python-level __new__.
    _unchecked = classmethod(tuple.__new__)

    @classmethod
    def compute(cls, p: int, d: int) -> "BoundTriple":
        require_prime(p)
        require_dimension(d)
        return _triple(p, d)

    def to_json_dict(self) -> dict:
        return self._asdict()


def _triple(p: int, d: int) -> BoundTriple:
    """BoundTriple.compute without the checks: p prime and d >= 1 are the caller's to ensure."""
    bk = _bk(p, d)
    return BoundTriple._unchecked((p, d, bk, bk // d, _b0(p, d)))


def _cell_text(triple: BoundTriple, sharpness: str = UNKNOWN) -> str:
    """A cell's text: B' with the smaller B0 in parentheses, exactly when they differ; "!" (sharp) or
    "*" (almost sharp) follows the last number."""
    mark = _MARKS.get(sharpness, "")
    if triple.b0 < triple.bk_prime:
        return f"{triple.bk_prime} ({triple.b0}{mark})"
    return f"{triple.bk_prime}{mark}"


@dataclass(frozen=True)
class BoundTable:
    """Bounds over d = 1..d_max and primes p <= p_max, built cell by cell as they are read.

    Cells with p > 2d + 1 (where both bounds are 2) are omitted unless the
    table is full; annotated says whether sharpness flags were merged, and
    flags holds the sharp and almost-sharp ones, keyed by (d, p).
    """

    d_max: int
    p_max: int
    primes: tuple[int, ...]
    flags: dict[tuple[int, int], str] = field(default_factory=dict, hash=False)  # the other fields decide the hash
    full: bool = False
    annotated: bool = False

    @property
    def cells(self) -> Iterator[tuple[BoundTriple, str]]:
        """Each cell's triple and sharpness, row by row: d = 1..d_max, then p over the ascending primes."""
        flags = self.flags
        for d, p in _grid(self.d_max, self.primes, self.full):
            yield _triple(p, d), flags.get((d, p), UNKNOWN)

    def to_json_dict(self) -> dict:
        cells = [{**triple._asdict(), "display": _cell_text(triple), "sharpness": flag} for triple, flag in self.cells]
        return {"d_max": self.d_max, "p_max": self.p_max, "annotated": self.annotated, "cells": cells}

    def annotate(self, sharpness: dict[tuple[int, int], str]) -> "BoundTable":
        """This table annotated: sharpness, keyed by (p, d) with values sharp / almost_sharp /
        none_found, flags the cells it names sharp or almost sharp; its other keys are ignored."""
        flags = {(d, p): status for d, p in _grid(self.d_max, self.primes, self.full)
                 if (status := sharpness.get((p, d))) in _MARKS}
        return replace(self, flags=flags, annotated=True)


def table_primes(d_max: int, p_max: int) -> list[int]:
    """The primes of a table's columns, checked: ValueError unless d_max is an int >= 1, p_max
    an int in 2..PMAX_LIMIT, and d_max times the number of primes <= p_max at most GRID_LIMIT."""
    require_dimension(d_max)
    primes = primes_up_to(require_int("p_max", p_max, 2, PMAX_LIMIT))
    if d_max * len(primes) > GRID_LIMIT:
        raise ValueError(f"a grid of {d_max} rows by {len(primes)} primes has more than {GRID_LIMIT} cells")
    return primes


def _trivial(p: int, d: int) -> bool:
    """Whether the (d, p) cell is trivial: p > 2d + 1, where B'(p, d) = B0(p, d) = 2."""
    return p > 2 * d + 1


def _grid(d_max: int, primes: list[int], include_trivial: bool = False) -> Iterator[tuple[int, int]]:
    """A table's (d, p) cells, row by row: d = 1..d_max, then p over the ascending primes; the
    trivial cells only when include_trivial."""
    for d in range(1, d_max + 1):  # the primes ascend, so a row's trivial cells follow all the others
        row = primes if include_trivial else takewhile(lambda p: not _trivial(p, d), primes)
        yield from ((d, p) for p in row)


def render_table(
    d_max: int,
    p_max: int,
    sharpness: dict[tuple[int, int], str] | None = None,
    include_trivial: bool = False,
) -> BoundTable:
    """The bound grid, checked by table_primes, annotated with sharpness when given (BoundTable.annotate).

    No cell is built here: a table's cells are computed each time they are read.
    """
    primes = tuple(table_primes(d_max, p_max))
    # full only when a trivial cell is shown, so that tables are equal exactly when their cells are
    table = BoundTable(d_max, p_max, primes, full=include_trivial and _trivial(primes[-1], 1))
    return table if sharpness is None else table.annotate(sharpness)

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

from dataclasses import dataclass
from typing import NamedTuple

from .arith import PMAX_LIMIT, _lambda, _valuation, primes_up_to, require_dimension, require_int, require_prime

SHARP = "sharp"
ALMOST_SHARP = "almost_sharp"
UNKNOWN = "unknown"
_MARKS = {SHARP: "!", ALMOST_SHARP: "*"}

# The most rows x prime columns render_table builds: 10**5 rows at p_max = 19
# (8 primes).  Each cell is held in memory until the table is printed: about
# 300 B, by tracemalloc over render_table(20000, 19).
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


def forced_subfield_exponent(p: int, e: int) -> int:
    """Exponent r such that v_p(N) = e forces Q(zeta_{p^r})^+ into the rationality field.

    Returns 0 (no information) below the hypothesis thresholds: e < 3 for
    odd p, e < 9 for p = 2.  Otherwise r = ceil(e/2 - v_p(3)/2) - 1 - v_p(2),
    clamped below at 0.
    """
    require_prime(p)
    if require_int("exponent", e) < 0:
        raise ValueError("exponent must be non-negative")
    return _forced_exponent(p, e)


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
    return BoundTriple(p, d, bk, bk // d, _b0(p, d))


@dataclass(frozen=True)
class TableCell:
    """One grid cell: the bound triple plus an optional sharpness flag."""

    triple: BoundTriple
    sharpness: str = UNKNOWN

    def __post_init__(self):
        if self.sharpness not in (SHARP, ALMOST_SHARP, UNKNOWN):
            raise ValueError(f"sharpness must be {SHARP}, {ALMOST_SHARP} or {UNKNOWN}, got {self.sharpness!r}")

    @property
    def display(self) -> str:
        """B' with the smaller B0 in parentheses, exactly when they differ."""
        return self.render(marked=False)

    def render(self, marked: bool = True) -> str:
        """The display text; when marked, "!" (sharp) or "*" (almost sharp) follows the last number."""
        mark = _MARKS.get(self.sharpness, "") if marked else ""
        t = self.triple
        if t.b0 < t.bk_prime:
            return f"{t.bk_prime} ({t.b0}{mark})"
        return f"{t.bk_prime}{mark}"

    def to_json_dict(self) -> dict:
        obj = self.triple.to_json_dict()
        obj["display"] = self.display
        obj["sharpness"] = self.sharpness
        return obj


@dataclass(frozen=True)
class BoundTable:
    """Bounds over d = 1..d_max and primes p <= p_max.

    Cells with p > 2d + 1 (where both bounds are 2) are omitted unless the
    table was rendered with include_trivial; annotated says whether sharpness
    flags were merged.
    """

    d_max: int
    p_max: int
    primes: tuple[int, ...]
    cells: dict[tuple[int, int], TableCell]  # keyed by (d, p)
    annotated: bool = False

    def to_json_dict(self) -> dict:
        cells = [self.cells[key].to_json_dict() for key in sorted(self.cells)]
        return {"d_max": self.d_max, "p_max": self.p_max, "annotated": self.annotated, "cells": cells}


def table_primes(d_max: int, p_max: int) -> list[int]:
    """The primes of a table's columns, checked: ValueError unless d_max is an int >= 1, p_max
    an int in 2..PMAX_LIMIT, and d_max times the number of primes <= p_max at most GRID_LIMIT."""
    require_dimension(d_max)
    primes = primes_up_to(require_int("p_max", p_max, 2, PMAX_LIMIT))
    if d_max * len(primes) > GRID_LIMIT:
        raise ValueError(f"a grid of {d_max} rows by {len(primes)} primes has more than {GRID_LIMIT} cells")
    return primes


def render_table(
    d_max: int,
    p_max: int,
    sharpness: dict[tuple[int, int], str] | None = None,
    include_trivial: bool = False,
) -> BoundTable:
    """Build the bound grid, merging per-cell sharpness flags when given.

    ``sharpness`` is keyed by (p, d) with values sharp / almost_sharp /
    none_found (the latter maps to an unknown cell flag).  The grid is
    checked by table_primes before any cell is built.
    """
    primes = table_primes(d_max, p_max)
    cells: dict[tuple[int, int], TableCell] = {}
    for d in range(1, d_max + 1):
        for p in primes:
            if p > 2 * d + 1 and not include_trivial:
                continue
            flag = UNKNOWN
            if sharpness is not None:
                status = sharpness.get((p, d))
                if status in (SHARP, ALMOST_SHARP):
                    flag = status
            cells[(d, p)] = TableCell(triple=_triple(p, d), sharpness=flag)
    return BoundTable(d_max=d_max, p_max=p_max, primes=tuple(primes), cells=cells, annotated=sharpness is not None)

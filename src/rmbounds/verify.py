"""Exhaustive verification of the bound inequalities over finite ranges.

Each property is stated as data: an explicit box of cases, usually
(p, d) or (p, m), a case filter, a predicate and an explanation, run by one
driver that counts the cases and reports the first counterexample.  The
driver checks every property on a box in one walk over it, so each cell's
kernel values are computed once.
The d <= 10 reference grid is frozen here so the formulas can be checked
cell-for-cell against the known values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .arith import _digits, _lambda, _valuation, primes_up_to, real_cyclotomic_degree, valuation
from .bounds import _b0, _bk, b0_bound, bk_bound, bk_prime_bound, forced_subfield_exponent
from .cyclo import _entry_degree

# Known (bk_prime, b0) values for d = 1..10 and the primes p <= 2d + 1.
REFERENCE_GRID_D10: dict[tuple[int, int], tuple[int, int]] = {
    # (d, p): (bk_prime, b0)
    (1, 2): (8, 8), (1, 3): (5, 5),
    (2, 2): (10, 10), (2, 3): (5, 5), (2, 5): (4, 4),
    (3, 2): (9, 8), (3, 3): (7, 7), (3, 5): (3, 2), (3, 7): (4, 4),
    (4, 2): (12, 12), (4, 3): (6, 5), (4, 5): (4, 4), (4, 7): (3, 2),
    (5, 2): (11, 8), (5, 3): (6, 5), (5, 5): (4, 2), (5, 7): (3, 2), (5, 11): (4, 4),
    (6, 2): (11, 10), (6, 3): (7, 7), (6, 5): (4, 4), (6, 7): (4, 4), (6, 11): (3, 2),
    (6, 13): (4, 4),
    (7, 2): (10, 8), (7, 3): (6, 5), (7, 5): (4, 2), (7, 7): (4, 2), (7, 11): (3, 2),
    (7, 13): (3, 2),
    (8, 2): (14, 14), (8, 3): (6, 5), (8, 5): (4, 4), (8, 7): (3, 2), (8, 11): (3, 2),
    (8, 13): (3, 2), (8, 17): (4, 4),
    (9, 2): (13, 8), (9, 3): (9, 9), (9, 5): (4, 2), (9, 7): (4, 4), (9, 11): (3, 2),
    (9, 13): (3, 2), (9, 17): (3, 2), (9, 19): (4, 4),
    (10, 2): (13, 10), (10, 3): (8, 5), (10, 5): (6, 6), (10, 7): (4, 2), (10, 11): (4, 4),
    (10, 13): (3, 2), (10, 17): (3, 2), (10, 19): (3, 2),
}


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    cases: int
    counterexample: str | None = None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "cases": self.cases, "counterexample": self.counterexample}


class _Property(NamedTuple):
    """A property of a box's cells: applies(*cell) picks its cases (None: every cell),
    holds(*cell) checks one and explain(*cell) describes the first that fails."""

    name: str
    applies: Callable[..., bool] | None
    holds: Callable[..., bool]
    explain: Callable[..., str]


def _walk(cells, properties) -> list[PropertyResult]:
    """Check every property on each cell in one pass, counting each property's cases.

    The explanation is built only for a property's first failing case, so
    passing runs never format text.
    """
    counts = [0] * len(properties)
    found: list[str | None] = [None] * len(properties)
    checks = [(i, applies, holds, explain) for i, (_, applies, holds, explain) in enumerate(properties)]
    for cell in cells:
        for i, applies, holds, explain in checks:
            if applies is None or applies(*cell):
                counts[i] += 1
                if not holds(*cell) and found[i] is None:
                    found[i] = explain(*cell)
    return [PropertyResult(prop.name, text is None, count, text) for prop, count, text in zip(properties, counts, found)]


def _meets(got: int, value: int, exact: bool) -> bool:
    """got equals value (exact) or is at least value (a floor)."""
    return got == value if exact else got >= value


def _check(name: str, cases, holds, explain) -> PropertyResult:
    """The single property holds(*case) over cases; explain(*case) describes the first failing one."""
    return _walk(cases, [_Property(name, None, holds, explain)])[0]


def _box(p_max: int, n_max: int, start: int = 1):
    """Cases (p, n) for primes p <= p_max and start <= n <= n_max, p outermost."""
    return itertools.product(primes_up_to(p_max), range(start, n_max + 1))


def _box_by_prime(p_max: int, n_max: int, row, start: int = 1):
    """Cases (p, n, row(p)) over _box(p_max, n_max, start); row(p) is built once per prime
    and dropped after that prime's cases, so kernel values free of n are computed once."""
    for p in primes_up_to(p_max):
        values = row(p)
        for n in range(start, n_max + 1):
            yield p, n, values


def _digit_cells(p_max: int, m_max: int):
    """Cells (p, m, lambda_p(m), m rebuilt from its base-p digits) over _box(p_max, m_max, start=0)."""
    for p in primes_up_to(p_max):
        for m in range(m_max + 1):
            rebuilt = 0
            for c in reversed(_digits(p, m)):  # Horner's rule
                rebuilt = rebuilt * p + c
            yield p, m, _lambda(p, m), rebuilt


_LAMBDA_ZERO = _Property(
    "lambda_zero_iff_below_p", None,
    lambda p, m, lam, rebuilt: (lam == 0) == (m < p),
    lambda p, m, lam, rebuilt: f"p={p}, m={m}: lambda={lam}",
)
_LAMBDA_LOWER_BOUND = _Property(
    "lambda_lower_bound", lambda p, m, lam, rebuilt: m >= 1,
    lambda p, m, lam, rebuilt: lam >= m - p + 1,
    lambda p, m, lam, rebuilt: f"p={p}, m={m}: lambda={lam} < {m - p + 1}",
)
_DIGIT_RECONSTRUCTION = _Property(
    "digit_reconstruction", None,
    lambda p, m, lam, rebuilt: rebuilt == m,
    lambda p, m, lam, rebuilt: f"p={p}, m={m}: digits rebuild to {rebuilt}",
)


def lambda_zero_iff_small(p_max: int = 50, m_max: int = 2500) -> PropertyResult:
    """lambda_p(m) = 0 exactly when m < p."""
    return _walk(_digit_cells(p_max, m_max), [_LAMBDA_ZERO])[0]


def lambda_lower_bound(p_max: int = 50, m_max: int = 2500) -> PropertyResult:
    """lambda_p(m) >= m - p + 1 for m >= 1."""
    return _walk(_digit_cells(p_max, m_max), [_LAMBDA_LOWER_BOUND])[0]


def digit_reconstruction(p_max: int = 50, m_max: int = 2500) -> PropertyResult:
    """The base-p digits of m sum back to m."""
    return _walk(_digit_cells(p_max, m_max), [_DIGIT_RECONSTRUCTION])[0]


def _bound_cells(p_max: int, d_max: int):
    """Cells (p, d, bk_prime, b0) over _box(p_max, d_max), each bound computed once."""
    for p in primes_up_to(p_max):
        for d in range(1, d_max + 1):
            yield p, d, _bk(p, d) // d, _b0(p, d)


def _piecewise_value(p: int, d: int) -> int:
    """bk_prime for p >= 5, p >= d and p != d + 1: 2, 4 or 3 by the position of p relative to d."""
    return 2 if p > 2 * d + 1 else 4 if p in (2 * d + 1, d) else 3


def _divisor_floor(p: int, d: int) -> tuple[int, bool]:
    """(floor, exact) when (p - 1) | 2d: bk_prime >= floor = 4 + 2 v_p(d) + (4 if p = 2) + (1 if p = 3),
    with equality (exact) when the p-free cofactor of 2d / (p - 1) is < p."""
    floor = 4 + 2 * _valuation(p, d) + (4 if p == 2 else 0) + (1 if p == 3 else 0)
    quotient = 2 * d // (p - 1)
    return floor, quotient // p ** _valuation(p, quotient) < p


def _divisor_explain(p: int, d: int, bk_prime: int, b0: int) -> str:
    floor, _ = _divisor_floor(p, d)
    if bk_prime < floor:
        return f"p={p}, d={d}: bk_prime={bk_prime} < {floor}"
    return f"p={p}, d={d}: equality expected, bk_prime={bk_prime} != {floor}"


_B0_LE_BK_PRIME = _Property(
    "b0_le_bk_prime", None,
    lambda p, d, bk_prime, b0: b0 <= bk_prime,
    lambda p, d, bk_prime, b0: f"p={p}, d={d}: b0={b0} > bk_prime={bk_prime}",
)
_EQUALITY_FOR_LARGE_P = _Property(
    "equality_when_p_ge_2d_plus_1", lambda p, d, bk_prime, b0: p >= 2 * d + 1,
    lambda p, d, bk_prime, b0: b0 == bk_prime,
    lambda p, d, bk_prime, b0: f"p={p}, d={d}: {b0} != {bk_prime}",
)
_STRICT_CASE_A = _Property(
    "strict_when_p_ge_5_nondivisor", lambda p, d, bk_prime, b0: 5 <= p < 2 * d + 1 and (2 * d) % (p - 1) != 0,
    lambda p, d, bk_prime, b0: b0 < bk_prime,
    lambda p, d, bk_prime, b0: f"p={p}, d={d}",
)
_PIECEWISE_LARGE_P = _Property(  # p = d + 1 is not covered by the piecewise statement
    "bk_prime_piecewise_large_p", lambda p, d, bk_prime, b0: p >= 5 and p >= d and p != d + 1,
    lambda p, d, bk_prime, b0: bk_prime == _piecewise_value(p, d),
    lambda p, d, bk_prime, b0: f"p={p}, d={d}: bk_prime={bk_prime} != {_piecewise_value(p, d)}",
)
_DIVISOR_CASE = _Property(
    "bk_prime_divisor_case", lambda p, d, bk_prime, b0: (2 * d) % (p - 1) == 0,
    lambda p, d, bk_prime, b0: _meets(bk_prime, *_divisor_floor(p, d)), _divisor_explain,
)


def b0_le_bk_prime(p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """b0 <= bk_prime everywhere, with the stated equality and strictness cases."""
    return _walk(_bound_cells(p_max, d_max), [_B0_LE_BK_PRIME])[0]


def equality_for_large_p(p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """b0 = bk_prime whenever p >= 2d + 1."""
    return _walk(_bound_cells(p_max, d_max), [_EQUALITY_FOR_LARGE_P])[0]


def strict_case_a(p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """b0 < bk_prime when 5 <= p < 2d + 1 and (p - 1) does not divide 2d."""
    return _walk(_bound_cells(p_max, d_max), [_STRICT_CASE_A])[0]


def strict_case_b(d_max: int = 100) -> PropertyResult:
    """b0 < bk_prime when p <= 3, d > 3 and p does not divide d."""
    return _check(
        "strict_when_p_le_3_nondivisor", ((p, d) for p, d in _box(3, d_max, start=4) if d % p != 0),
        lambda p, d: b0_bound(p, d) < bk_prime_bound(p, d),
        lambda p, d: f"p={p}, d={d}",
    )


def bk_prime_piecewise_large_p(p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """For p >= 5 and p >= d: bk_prime is 2 / 4 / 3 by the position of p relative to d."""
    return _walk(_bound_cells(p_max, d_max), [_PIECEWISE_LARGE_P])[0]


def bk_prime_small_p(d_max: int = 100) -> PropertyResult:
    """Small-p exact values and floors for bk_prime."""
    exact = [(3, 1, 5), (3, 2, 5), (2, 1, 8), (2, 2, 10), (2, 3, 9)]
    cases = itertools.chain(
        ((p, d, value, True) for p, d, value in exact),
        ((2, d, 9, False) for d in range(4, d_max + 1)),
        ((3, d, 6, False) for d in range(3, d_max + 1)),
    )
    return _check(
        "bk_prime_small_p_values", cases, lambda p, d, value, exact: _meets(bk_prime_bound(p, d), value, exact),
        lambda p, d, value, exact: f"p={p}, d={d}: bk_prime={bk_prime_bound(p, d)} {'!=' if exact else '<'} {value}",
    )


def bk_prime_divisor_case(p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """When (p - 1) | 2d: bk_prime >= 4 + 2 v_p(d) + (4 if p = 2) + (1 if p = 3),
    with equality when the p-free cofactor of 2d / (p - 1) is < p."""
    return _walk(_bound_cells(p_max, d_max), [_DIVISOR_CASE])[0]


def forced_exponent_monotone(p_max: int = 200, e_max: int = 40) -> PropertyResult:
    """forced_subfield_exponent is nondecreasing in e for fixed p."""
    def row(p):
        # row[e + 1] is the forced exponent at e; row[0] = 0 stands for e = -1
        return [0, *(forced_subfield_exponent(p, e) for e in range(e_max + 1))]
    return _check(
        "forced_exponent_monotone", _box_by_prime(p_max, e_max, row, start=0),
        lambda p, e, r: r[e] <= r[e + 1],
        lambda p, e, r: f"p={p}, e={e}: r drops {r[e]} -> {r[e + 1]}",
    )


def cyclotomic_degree_monotone(p_max: int = 200, r_max: int = 30) -> PropertyResult:
    """real_cyclotomic_degree is nondecreasing in r for fixed p."""
    def row(p):
        # row[r + 1] is the degree at r; row[0] = 0 stands for r = -1
        return [0, *(real_cyclotomic_degree(p, r) for r in range(r_max + 1))]
    return _check(
        "cyclotomic_degree_monotone", _box_by_prime(p_max, r_max, row, start=0),
        lambda p, r, degrees: degrees[r] <= degrees[r + 1],
        lambda p, r, degrees: f"p={p}, r={r}",
    )


def b0_matches_forced_degree_oracle(p_max: int = 200, d_max: int = 64, e_max: int | None = None) -> PropertyResult:
    """b0_bound equals the largest e <= e_max whose forced cyclotomic degree divides d.

    This is the independent route to the improved bound: scan every exponent
    directly instead of using the closed form. The forced degrees do not
    depend on d, so they are listed once per prime. The default e_max,
    max(40, 2 * d_max.bit_length() + 10), runs at least two exponents past
    the box's largest b0_bound, b0_bound(2, d) = 8 + 2 v_2(d), so the scan
    never stops short of the closed form.
    """
    if e_max is None:
        e_max = max(40, 2 * d_max.bit_length() + 10)
    def forced_degrees(p):
        return [real_cyclotomic_degree(p, forced_subfield_exponent(p, e)) for e in range(1, e_max + 1)]
    def oracle(p, d, degrees):
        return max((e for e, degree in enumerate(degrees, 1) if d % degree == 0), default=0)
    return _check(
        "b0_equals_forced_degree_oracle", _box_by_prime(p_max, d_max, forced_degrees),
        lambda p, d, degrees: oracle(p, d, degrees) == b0_bound(p, d),
        lambda p, d, degrees: f"p={p}, d={d}: oracle={oracle(p, d, degrees)}, b0={b0_bound(p, d)}",
    )


def single_prime_boundary(p_max: int = 200, d_max: int = 64) -> PropertyResult:
    """A lone prime at b0_bound is admissible; one exponent higher is not.

    Each case makes analyze_profile's own admissibility test: the forced
    degree divides d.
    """
    def admissible(p, d, e):
        return d % _entry_degree(p, e) == 0
    def explain(p, d, cap):
        if not admissible(p, d, cap):
            return f"p={p}, d={d}: exponent {cap} not admissible"
        return f"p={p}, d={d}: exponent {cap + 1} not ruled out"
    return _check(
        "single_prime_boundary", ((p, d, b0_bound(p, d)) for p, d in _box(p_max, d_max)),
        lambda p, d, cap: admissible(p, d, cap) and not admissible(p, d, cap + 1),
        explain,
    )


def reference_grid_check() -> PropertyResult:
    """bk_prime and b0 match the frozen d <= 10 grid cell-for-cell."""
    def got(p, d):
        return (bk_prime_bound(p, d), b0_bound(p, d))
    return _check(
        "reference_grid_d10",
        ((p, d, expected) for (d, p), expected in sorted(REFERENCE_GRID_D10.items())),
        lambda p, d, expected: got(p, d) == expected,
        lambda p, d, expected: f"p={p}, d={d}: got {got(p, d)}, expected {expected}",
    )


def valuation_additivity(p_max: int = 50) -> PropertyResult:
    """valuation(p, p^k * n) = k + valuation(p, n)."""
    cofactors = (1, 2, 3, 7, 30, 1999, 2 * 3 * 5 * 7 * 11)
    return _check(
        "valuation_additivity", itertools.product(primes_up_to(p_max), range(0, 8), cofactors),
        lambda p, k, n: valuation(p, p**k * n) == k + valuation(p, n),
        lambda p, k, n: f"p={p}, k={k}, n={n}",
    )


def bk_prime_floor_identity(p_max: int = 200, d_max: int = 64) -> PropertyResult:
    """bk_prime_bound agrees with floor(bk_bound / d)."""
    return _check(
        "bk_prime_floor_identity", _box(p_max, d_max),
        lambda p, d: bk_prime_bound(p, d) == bk_bound(p, d) // d,
        lambda p, d: f"p={p}, d={d}",
    )


def run_all(p_max: int = 1000, d_max: int = 100) -> list[PropertyResult]:
    """Run the full suite, scaling range-quantified properties to the flags.

    The properties of the (p, m) box and those of the (p, d) box are each
    checked in one walk over their box, so each cell's kernels run once.
    """
    small_p = min(p_max, 50)
    oracle_p, oracle_d = min(p_max, 200), min(d_max, 64)
    lambda_zero, lambda_lower, digits = _walk(
        _digit_cells(small_p, 2500), [_LAMBDA_ZERO, _LAMBDA_LOWER_BOUND, _DIGIT_RECONSTRUCTION]
    )
    b0_le, equality, strict_a, piecewise, divisor = _walk(
        _bound_cells(p_max, d_max),
        [_B0_LE_BK_PRIME, _EQUALITY_FOR_LARGE_P, _STRICT_CASE_A, _PIECEWISE_LARGE_P, _DIVISOR_CASE],
    )
    results = [
        lambda_zero,
        lambda_lower,
        digits,
        valuation_additivity(p_max=small_p),
        b0_le,
        equality,
        strict_a,
        strict_case_b(d_max=d_max),
        piecewise,
        bk_prime_small_p(d_max=max(d_max, 4)),
        divisor,
        bk_prime_floor_identity(p_max=oracle_p, d_max=oracle_d),
        forced_exponent_monotone(p_max=oracle_p),
        cyclotomic_degree_monotone(p_max=oracle_p),
        b0_matches_forced_degree_oracle(p_max=oracle_p, d_max=oracle_d),
        single_prime_boundary(p_max=oracle_p, d_max=oracle_d),
    ]
    if p_max >= 19 and d_max >= 10:
        results.append(reference_grid_check())
    return results


def format_report(results: list[PropertyResult]) -> str:
    """One PASS / FAIL / EMPTY line per property, then the summary.

    A property whose box held no case is EMPTY, not PASS, and the summary
    counts it apart from the properties that were checked.
    """
    lines = []
    for result in results:
        if not result.ok:
            lines.append(f"FAIL {result.name}: counterexample {result.counterexample}")
        elif result.cases:
            lines.append(f"PASS {result.name} ({result.cases} cases)")
        else:
            lines.append(f"EMPTY {result.name} (0 cases)")
    empty = sum(r.ok and not r.cases for r in results)
    summary = f"{sum(r.ok for r in results) - empty}/{len(results) - empty} properties hold"
    if empty:
        summary += f"; {empty} checked no case"
    lines.append(summary)
    return "\n".join(lines)

"""Exhaustive verification of the bound inequalities over finite ranges.

The module is one table.  A ``_Box`` generates rows of cells, such as
(p, d) or (p, m) with the kernel values its properties share, plus the
sizes ``run_all(p_max, d_max)`` checks it at.  A row is a list of at most
``_ROW`` cells, one prime's (several primes' in the bound box when d_max is
small), so a walk holds one row at a time and never a whole box.
``PROPERTIES`` lists every ``_Property`` -- its box, a case filter, a
predicate and an explanation -- in ``run_all``'s output order.
``run_all`` walks each box once for all of its properties, so each cell's
kernel values are computed once, and ``check(name, **sizes)`` runs one
property alone over its box.  For each row and property, the walk picks
the cases and checks them in C-level iterators; it counts a property's
cases and reports its first counterexample.  Cells and predicates look
kernels up by name when they run, never at import.  ``run_all`` and
``check`` refuse to check more than ``BOX_LIMIT`` (p, d) cells.
The d <= 10 reference grid is frozen here so the formulas can be checked
cell-for-cell against the known values.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product, starmap
from typing import Callable, Iterable, NamedTuple

from .arith import (
    PMAX_LIMIT, _digits, _lambda, _valuation, primes_up_to, real_cyclotomic_degree, require_int, valuation,
)
from .bounds import _b0, _bk, b0_bound, bk_bound, bk_prime_bound, forced_subfield_exponent
from .cyclo import _entry_degree

# The most (p, d) cells run_all checks: (the number of primes <= p_max, plus 4)
# times d_max, the bound box plus the small-p boxes, which hold about 4 d_max
# cells at p = 2 and 3 whatever p_max is.  On a 2-core Xeon, (10000, 300) is
# 369,900 cells in about 0.5 s, and a run at the limit takes about 1.5 s at
# p_max = 10000 and 3.5 s at p_max = 2.
BOX_LIMIT = 1_000_000
_ROW = 1024  # the most cells a row holds, so a walk's memory does not grow with d_max

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


class _Box(NamedTuple):
    """cells(**sizes) yields a box's cells in rows, lists of at most _ROW cells in the box's order,
    each size defaulting to its value at run_all's defaults; sizes(p_max, d_max) is what run_all
    gives it (None: run_all skips the box)."""

    cells: Callable[..., Iterable[list[tuple]]]
    sizes: Callable[[int, int], dict | None]


class _Property(NamedTuple):
    """A property of its box's cells: applies(*cell) picks its cases (None: every cell),
    holds(*cell) checks one and explain(*cell) describes the first that fails."""

    name: str
    box: _Box
    applies: Callable[..., bool] | None
    holds: Callable[..., bool]
    explain: Callable[..., str]


def _walk(rows, properties) -> list[PropertyResult]:
    """Check every property on each row of cells in one pass, counting each property's cases.

    A row's cases are picked with compress and checked with all, so the loop
    over cells runs in C.  Only a property's first failing row is scanned
    again, to explain its first failing case, so passing runs never format text.
    """
    counts = [0] * len(properties)
    found: list[str | None] = [None] * len(properties)
    checks = [(i, prop.applies, prop.holds) for i, prop in enumerate(properties)]
    for row in rows:
        for i, applies, holds in checks:
            cases = row if applies is None else list(compress(row, starmap(applies, row)))
            counts[i] += len(cases)
            if found[i] is None and not all(starmap(holds, cases)):
                found[i] = properties[i].explain(*next(cell for cell in cases if not holds(*cell)))
    return [PropertyResult(prop.name, text is None, count, text) for prop, count, text in zip(properties, counts, found)]


def _meets(got: int, value: int, exact: bool) -> bool:
    """got equals value (exact) or is at least value (a floor)."""
    return got == value if exact else got >= value


def _spans(start: int, stop: int):
    """range(start, stop) in consecutive pieces of at most _ROW numbers: the n of one row each."""
    return (range(lo, min(lo + _ROW, stop)) for lo in range(start, stop, _ROW))


def _rebuild(p: int, digits: list[int]) -> int:
    """The number whose little-endian base-p digits are digits, by Horner's rule, which reads every digit."""
    m = 0
    for c in reversed(digits):
        m = m * p + c
    return m


def _digit_cells(p_max: int = 50, m_max: int = 2500):
    """Rows of cells (p, m, lambda_p(m), m rebuilt from its base-p digits), p prime <= p_max, 0 <= m <= m_max."""
    for p in primes_up_to(p_max):
        for ms in _spans(0, m_max + 1):
            yield [(p, m, _lambda(p, m), _rebuild(p, _digits(p, m))) for m in ms]


def _bound_cells(p_max: int = 1000, d_max: int = 100, primes: list[int] | None = None):
    """Rows of cells (p, d, bk_prime, b0), p in primes or prime <= p_max, 1 <= d <= d_max, each bound computed once.

    A row holds as many whole primes as fit in _ROW cells, so a box of many
    primes and a small d_max is not walked one short row per prime.
    """
    primes = primes_up_to(p_max) if primes is None else primes
    per_row = max(1, _ROW // max(1, d_max))  # whole primes per row; d_max < 1 gives no cells
    for i in range(0, len(primes), per_row):
        for ds in _spans(1, d_max + 1):
            yield [(p, d, _bk(p, d) // d, _b0(p, d)) for p in primes[i : i + per_row] for d in ds]


def _small_p_cells(d_max: int = 100):
    """Rows of cells (p, d, value, exact): the exact small-p values of bk_prime, then its floors."""
    yield [(p, d, value, True) for p, d, value in [(3, 1, 5), (3, 2, 5), (2, 1, 8), (2, 2, 10), (2, 3, 9)]]
    for p, start, floor in ((2, 4, 9), (3, 3, 6)):
        for ds in _spans(start, d_max + 1):
            yield [(p, d, floor, False) for d in ds]


def _rows(kernel, p_max: int, n_max: int):
    """Rows of cells (p, n, values) for primes p <= p_max and 0 <= n <= n_max: values[n + 1] is
    kernel(p, n) and values[0] = 0 stands for n = -1.  The values are listed once per prime."""
    for p in primes_up_to(p_max):
        values = [0, *(kernel(p, n) for n in range(n_max + 1))]
        for ns in _spans(0, n_max + 1):
            yield [(p, n, values) for n in ns]


def _oracle_cells(p_max: int = 200, d_max: int = 64, e_max: int | None = None):
    """Rows of cells (p, d, forced degrees at e = 1..e_max, b0_bound(p, d)), p prime <= p_max, 1 <= d <= d_max.

    The forced degrees do not depend on d, so they are listed once per prime.
    The default e_max, max(40, 2 * d_max.bit_length() + 10), runs at least two
    exponents past the box's largest b0_bound, b0_bound(2, d) = 8 + 2 v_2(d), so
    the exponent scan never stops short of the closed form.
    """
    if e_max is None:
        e_max = max(40, 2 * d_max.bit_length() + 10)
    for p in primes_up_to(p_max):
        degrees = [real_cyclotomic_degree(p, forced_subfield_exponent(p, e)) for e in range(1, e_max + 1)]
        for ds in _spans(1, d_max + 1):
            yield [(p, d, degrees, b0_bound(p, d)) for d in ds]


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


def _oracle(d: int, degrees: list[int]) -> int:
    """The exponent scan's b0: the largest e whose forced degree degrees[e - 1] divides d."""
    return max((e for e, degree in enumerate(degrees, 1) if d % degree == 0), default=0)


def _admissible(p: int, d: int, e: int) -> bool:
    """analyze_profile's own admissibility test for a lone prime: the forced degree divides d."""
    return d % _entry_degree(p, e) == 0


def _boundary_explain(p: int, d: int, degrees: list[int], cap: int) -> str:
    if not _admissible(p, d, cap):
        return f"p={p}, d={d}: exponent {cap} not admissible"
    return f"p={p}, d={d}: exponent {cap + 1} not ruled out"


def _grid_cell(p: int, d: int) -> tuple[int, int]:
    return bk_prime_bound(p, d), b0_bound(p, d)


_DIGITS = _Box(_digit_cells, lambda p_max, d_max: {"p_max": min(p_max, 50), "m_max": 2500})
_VALUATIONS = _Box(
    lambda p_max=50: [[*product(primes_up_to(p_max), range(0, 8), (1, 2, 3, 7, 30, 1999, 2 * 3 * 5 * 7 * 11))]],
    lambda p_max, d_max: {"p_max": min(p_max, 50)},
)
_BOUNDS = _Box(_bound_cells, lambda p_max, d_max: {"p_max": p_max, "d_max": d_max})
_SMALL_P = _Box(
    lambda d_max=100: ([(p, d) for d in ds] for p in (2, 3) for ds in _spans(4, d_max + 1)),
    lambda p_max, d_max: {"d_max": d_max},
)
_SMALL_P_VALUES = _Box(_small_p_cells, lambda p_max, d_max: {"d_max": max(d_max, 4)})
_ORACLE = _Box(_oracle_cells, lambda p_max, d_max: {"p_max": min(p_max, 200), "d_max": min(d_max, 64)})
# The kernels are named inside the lambdas, so they are looked up when a walk starts.
_FORCED_EXPONENTS = _Box(
    lambda p_max=200, e_max=40: _rows(forced_subfield_exponent, p_max, e_max),
    lambda p_max, d_max: {"p_max": min(p_max, 200)},
)
_CYCLOTOMIC_DEGREES = _Box(
    lambda p_max=200, r_max=30: _rows(real_cyclotomic_degree, p_max, r_max),
    lambda p_max, d_max: {"p_max": min(p_max, 200)},
)
_REFERENCE_GRID = _Box(
    lambda: [[(p, d, expected) for (d, p), expected in sorted(REFERENCE_GRID_D10.items())]],
    lambda p_max, d_max: {} if p_max >= 19 and d_max >= 10 else None,
)

# Every property, in run_all's output order.
PROPERTIES: tuple[_Property, ...] = (
    _Property(
        "lambda_zero_iff_below_p", _DIGITS, None,
        lambda p, m, lam, rebuilt: (lam == 0) == (m < p),
        lambda p, m, lam, rebuilt: f"p={p}, m={m}: lambda={lam}",
    ),
    _Property(
        "lambda_lower_bound", _DIGITS, lambda p, m, lam, rebuilt: m >= 1,
        lambda p, m, lam, rebuilt: lam >= m - p + 1,
        lambda p, m, lam, rebuilt: f"p={p}, m={m}: lambda={lam} < {m - p + 1}",
    ),
    _Property(  # the base-p digits of m sum back to m
        "digit_reconstruction", _DIGITS, None,
        lambda p, m, lam, rebuilt: rebuilt == m,
        lambda p, m, lam, rebuilt: f"p={p}, m={m}: digits rebuild to {rebuilt}",
    ),
    _Property(
        "valuation_additivity", _VALUATIONS, None,
        lambda p, k, n: valuation(p, p**k * n) == k + valuation(p, n),
        lambda p, k, n: f"p={p}, k={k}, n={n}",
    ),
    _Property(
        "b0_le_bk_prime", _BOUNDS, None,
        lambda p, d, bk_prime, b0: b0 <= bk_prime,
        lambda p, d, bk_prime, b0: f"p={p}, d={d}: b0={b0} > bk_prime={bk_prime}",
    ),
    _Property(
        "equality_when_p_ge_2d_plus_1", _BOUNDS, lambda p, d, bk_prime, b0: p >= 2 * d + 1,
        lambda p, d, bk_prime, b0: b0 == bk_prime,
        lambda p, d, bk_prime, b0: f"p={p}, d={d}: {b0} != {bk_prime}",
    ),
    _Property(
        "strict_when_p_ge_5_nondivisor", _BOUNDS,
        lambda p, d, bk_prime, b0: 5 <= p < 2 * d + 1 and (2 * d) % (p - 1) != 0,
        lambda p, d, bk_prime, b0: b0 < bk_prime,
        lambda p, d, bk_prime, b0: f"p={p}, d={d}",
    ),
    _Property(  # p <= 3 and d > 3
        "strict_when_p_le_3_nondivisor", _SMALL_P, lambda p, d: d % p != 0,
        lambda p, d: b0_bound(p, d) < bk_prime_bound(p, d),
        lambda p, d: f"p={p}, d={d}",
    ),
    _Property(  # p = d + 1 is not covered by the piecewise statement
        "bk_prime_piecewise_large_p", _BOUNDS, lambda p, d, bk_prime, b0: p >= 5 and p >= d and p != d + 1,
        lambda p, d, bk_prime, b0: bk_prime == _piecewise_value(p, d),
        lambda p, d, bk_prime, b0: f"p={p}, d={d}: bk_prime={bk_prime} != {_piecewise_value(p, d)}",
    ),
    _Property(
        "bk_prime_small_p_values", _SMALL_P_VALUES, None,
        lambda p, d, value, exact: _meets(bk_prime_bound(p, d), value, exact),
        lambda p, d, value, exact: f"p={p}, d={d}: bk_prime={bk_prime_bound(p, d)} {'!=' if exact else '<'} {value}",
    ),
    _Property(
        "bk_prime_divisor_case", _BOUNDS, lambda p, d, bk_prime, b0: (2 * d) % (p - 1) == 0,
        lambda p, d, bk_prime, b0: _meets(bk_prime, *_divisor_floor(p, d)), _divisor_explain,
    ),
    _Property(
        "bk_prime_floor_identity", _ORACLE, None,
        lambda p, d, degrees, b0: bk_prime_bound(p, d) == bk_bound(p, d) // d,
        lambda p, d, degrees, b0: f"p={p}, d={d}",
    ),
    _Property(
        "forced_exponent_monotone", _FORCED_EXPONENTS, None,
        lambda p, e, r: r[e] <= r[e + 1],
        lambda p, e, r: f"p={p}, e={e}: r drops {r[e]} -> {r[e + 1]}",
    ),
    _Property(
        "cyclotomic_degree_monotone", _CYCLOTOMIC_DEGREES, None,
        lambda p, r, degrees: degrees[r] <= degrees[r + 1],
        lambda p, r, degrees: f"p={p}, r={r}",
    ),
    _Property(  # the closed form against a direct scan of every exponent
        "b0_equals_forced_degree_oracle", _ORACLE, None,
        lambda p, d, degrees, b0: _oracle(d, degrees) == b0,
        lambda p, d, degrees, b0: f"p={p}, d={d}: oracle={_oracle(d, degrees)}, b0={b0}",
    ),
    _Property(  # a lone prime at b0 is admissible, one exponent higher is not
        "single_prime_boundary", _ORACLE, None,
        lambda p, d, degrees, cap: _admissible(p, d, cap) and not _admissible(p, d, cap + 1),
        _boundary_explain,
    ),
    _Property(
        "reference_grid_d10", _REFERENCE_GRID, None,
        lambda p, d, expected: _grid_cell(p, d) == expected,
        lambda p, d, expected: f"p={p}, d={d}: got {_grid_cell(p, d)}, expected {expected}",
    ),
)
_BY_NAME = {prop.name: prop for prop in PROPERTIES}


def _checked_primes(p_max: int, d_max: int) -> list[int]:
    """The primes <= p_max, once p_max and d_max pass run_all's checks and their box is within BOX_LIMIT."""
    require_int("p_max", p_max, 1, PMAX_LIMIT)
    require_int("d_max", d_max, 1)
    primes = primes_up_to(p_max)
    if (cells := (len(primes) + 4) * d_max) > BOX_LIMIT:
        raise ValueError(f"verify over {len(primes)} primes and d <= {d_max} checks {cells} cells, more than {BOX_LIMIT}")
    return primes


def _cells(box: _Box, sizes: dict, primes: list[int]):
    """box's rows at sizes; the bound box walks primes, listed by _checked_primes, instead of sieving again."""
    return box.cells(**sizes, primes=primes) if box is _BOUNDS else box.cells(**sizes)


def check(name: str, **sizes) -> PropertyResult:
    """The property called name alone over its box; each size not given takes its box's default.
    p_max and d_max, at run_all's defaults when not given, are checked as run_all checks them."""
    prop = _BY_NAME.get(name)
    if prop is None:
        raise ValueError(f"unknown property {name!r}; known: {', '.join(_BY_NAME)}")
    primes = _checked_primes(sizes.get("p_max", 1000), sizes.get("d_max", 100))
    return _walk(_cells(prop.box, sizes, primes), [prop])[0]


def b0_le_bk_prime(p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """A view over check, kept because bench/workloads.py (VerifyBox.warm_up) calls it by position."""
    return check("b0_le_bk_prime", p_max=p_max, d_max=d_max)


def single_prime_boundary(p_max: int = 200, d_max: int = 64) -> PropertyResult:
    """A view over check, kept because bench/workloads.py (VerifyBox.warm_up) calls it by position."""
    return check("single_prime_boundary", p_max=p_max, d_max=d_max)


def run_all(p_max: int = 1000, d_max: int = 100) -> list[PropertyResult]:
    """Every property, in PROPERTIES order, each box at the sizes it gives for (p_max, d_max).

    p_max must be an int in 1..PMAX_LIMIT and d_max an int >= 1, with at
    most BOX_LIMIT cells to check.  Each box is walked once for all of its
    properties, so each cell's kernels run once.
    """
    primes = _checked_primes(p_max, d_max)
    boxes: dict[_Box, list[_Property]] = {}
    for prop in PROPERTIES:
        boxes.setdefault(prop.box, []).append(prop)
    results = {}
    for box, properties in boxes.items():
        sizes = box.sizes(p_max, d_max)
        if sizes is not None:
            results.update((result.name, result) for result in _walk(_cells(box, sizes, primes), properties))
    return [results[prop.name] for prop in PROPERTIES if prop.name in results]


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

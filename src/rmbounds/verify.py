"""Exhaustive verification of the bound inequalities over finite ranges.

The module is one table.  A box is a callable ``(p_max, d_max, primes)``
that yields its cells one at a time, such as (p, d) or (p, m) with the
kernel values its properties share, at the sizes ``run_all(p_max, d_max)``
checks it at, or returns None where ``run_all`` skips it.  ``PROPERTIES``
lists every ``_Property`` -- its box, a case filter, a predicate and an
explanation -- in ``run_all``'s output order.  ``run_all`` walks each box
once for all of its properties, so each cell's kernel values are computed
once.  ``check(name, p_max, d_max)`` is ``run_all(p_max, d_max)``'s result
for one property: the same box, clamps, checks and ``BOX_LIMIT``, through
the same walk.  The walk alone cuts a box's cells into rows of at most
``_ROW``, so it holds one row at a time and never a whole box.  For each
row and property, it picks the cases and checks them in C-level
iterators; it counts a property's cases and reports its first
counterexample.  Cells and predicates look kernels up by name when they
run, never at import.
The d <= 10 reference grid is frozen here so the formulas can be checked
cell-for-cell against the known values.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import compress, islice, product, starmap
from typing import Callable, Iterable, NamedTuple

from .arith import (
    PMAX_LIMIT, _digits, _lambda, _valuation, primes_up_to, real_cyclotomic_degree, require_int, valuation,
)
from .bounds import _b0, _bk, b0_bound, bk_bound, bk_prime_bound, forced_subfield_exponent
from .cyclo import _entry_degree

# The most (p, d) cells run_all checks: (the number of primes <= p_max, plus 4)
# times d_max, the bound box plus the small-p boxes, which hold about 4 d_max
# cells at p = 2 and 3 whatever p_max is.  On a 2-core Xeon, (10000, 300) is
# 369,900 cells in about 0.45 s, and a run at the limit takes about 1.1 s at
# p_max = 10000 and 2 s at p_max = 2.
BOX_LIMIT = 1_000_000
_ROW = 1024  # the most cells a row of _walk holds, so a walk's memory does not grow with the box

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
        return asdict(self)


class _Property(NamedTuple):
    """A property of its box's cells: box(p_max, d_max, primes) yields its cells (None: run_all
    skips the box), applies(*cell) picks its cases (None: every cell), holds(*cell) checks one and
    explain(*cell) describes the first that fails."""

    name: str
    box: Callable[[int, int, list[int]], Iterable[tuple] | None]
    applies: Callable[..., bool] | None
    holds: Callable[..., bool]
    explain: Callable[..., str]


def _walk(cells, properties) -> list[PropertyResult]:
    """Check every property on the cells in one pass, counting each property's cases.

    The cells are taken in rows of at most _ROW, so the walk's memory does not
    grow with the box.  A row's cases are picked with compress and checked
    with all, so the loop over cells runs in C.  Only a property's first
    failing row is scanned again, to explain its first failing case, so
    passing runs never format text.
    """
    counts = [0] * len(properties)
    found: list[str | None] = [None] * len(properties)
    checks = [(i, prop.applies, prop.holds) for i, prop in enumerate(properties)]
    cells = iter(cells)
    for row in iter(lambda: list(islice(cells, _ROW)), []):
        for i, applies, holds in checks:
            cases = row if applies is None else list(compress(row, starmap(applies, row)))
            counts[i] += len(cases)
            if found[i] is None and not all(starmap(holds, cases)):
                found[i] = properties[i].explain(*next(cell for cell in cases if not holds(*cell)))
    return [PropertyResult(prop.name, text is None, count, text) for prop, count, text in zip(properties, counts, found)]


def _meets(got: int, value: int, exact: bool) -> bool:
    """got equals value (exact) or is at least value (a floor)."""
    return got == value if exact else got >= value


def _rebuild(p: int, digits: list[int]) -> int:
    """The number whose little-endian base-p digits are digits, by Horner's rule, which reads every digit."""
    m = 0
    for c in reversed(digits):
        m = m * p + c
    return m


def _digit_cells(p_max: int, d_max: int, primes: list[int]):
    """Cells (p, m, lambda_p(m), m rebuilt from its base-p digits), p prime <= min(p_max, 50), 0 <= m <= 2500."""
    ps = primes_up_to(min(p_max, 50))
    return ((p, m, _lambda(p, m), _rebuild(p, _digits(p, m))) for p in ps for m in range(2501))


def _bound_cells(p_max: int, d_max: int, primes: list[int]):
    """Cells (p, d, bk_prime, b0), p in primes (the primes <= p_max), 1 <= d <= d_max, each bound computed once."""
    return ((p, d, _bk(p, d) // d, _b0(p, d)) for p in primes for d in range(1, d_max + 1))


def _small_p_cells(p_max: int, d_max: int, primes: list[int]):
    """Cells (p, d, value, exact): the exact small-p values of bk_prime, then its floors to max(d_max, 4)."""
    yield from ((p, d, value, True) for p, d, value in [(3, 1, 5), (3, 2, 5), (2, 1, 8), (2, 2, 10), (2, 3, 9)])
    for p, start, floor in ((2, 4, 9), (3, 3, 6)):
        yield from ((p, d, floor, False) for d in range(start, max(d_max, 4) + 1))


def _kernel_cells(kernel, p_max: int, n_max: int):
    """Cells (p, n, values) for primes p <= p_max and 0 <= n <= n_max: values[n + 1] is
    kernel(p, n) and values[0] = 0 stands for n = -1.  The values are listed once per prime."""
    for p in primes_up_to(p_max):
        values = [0, *(kernel(p, n) for n in range(n_max + 1))]
        yield from ((p, n, values) for n in range(n_max + 1))


def _oracle_cells(p_max: int, d_max: int, primes: list[int]):
    """Cells (p, d, scan, b0_bound(p, d)), p prime <= min(p_max, 200) and 1 <= d <= min(d_max, 64),
    where scan is the exponent scan's b0: the largest e <= 40 whose forced degree divides d, or 0.

    The scan is one sieve per prime: for e = 1..40 in ascending order, every
    multiple of e's forced degree is marked with e, so each d keeps the
    largest e whose degree divides it.  Every exponent is marked, so the
    sieve assumes no monotonicity of the forced degrees.  The box's largest
    b0_bound is b0_bound(2, 64) = 20, so the scan of 40 exponents never
    stops short of the closed form.
    """
    top = min(d_max, 64)
    for p in primes_up_to(min(p_max, 200)):
        scan = [0] * (top + 1)
        for e in range(1, 41):
            degree = real_cyclotomic_degree(p, forced_subfield_exponent(p, e))
            scan[degree::degree] = [e] * (top // degree)
        yield from ((p, d, scan[d], b0_bound(p, d)) for d in range(1, top + 1))


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


def _admissible(p: int, d: int, e: int) -> bool:
    """analyze_profile's own admissibility test for a lone prime: the forced degree divides d."""
    return d % _entry_degree(p, e) == 0


def _boundary_explain(p: int, d: int, scan: int, cap: int) -> str:
    if not _admissible(p, d, cap):
        return f"p={p}, d={d}: exponent {cap} not admissible"
    return f"p={p}, d={d}: exponent {cap + 1} not ruled out"


def _grid_cell(p: int, d: int) -> tuple[int, int]:
    return bk_prime_bound(p, d), b0_bound(p, d)


# The boxes that need no generator of their own.  The kernels are named inside the lambdas,
# so they are looked up when a walk starts.
_VALUATIONS = lambda p_max, d_max, primes: product(
    primes_up_to(min(p_max, 50)), range(0, 8), (1, 2, 3, 7, 30, 1999, 2 * 3 * 5 * 7 * 11)
)
_SMALL_P = lambda p_max, d_max, primes: ((p, d) for p in (2, 3) for d in range(4, d_max + 1))
_FORCED_EXPONENTS = lambda p_max, d_max, primes: _kernel_cells(forced_subfield_exponent, min(p_max, 200), 40)
_CYCLOTOMIC_DEGREES = lambda p_max, d_max, primes: _kernel_cells(real_cyclotomic_degree, min(p_max, 200), 30)
_REFERENCE_GRID = lambda p_max, d_max, primes: (  # run_all checks the grid only from (19, 10) up
    [(p, d, expected) for (d, p), expected in sorted(REFERENCE_GRID_D10.items())]
    if p_max >= 19 and d_max >= 10 else None
)

# Every property, in run_all's output order.
PROPERTIES: tuple[_Property, ...] = (
    _Property(
        "lambda_zero_iff_below_p", _digit_cells, None,
        lambda p, m, lam, rebuilt: (lam == 0) == (m < p),
        lambda p, m, lam, rebuilt: f"p={p}, m={m}: lambda={lam}",
    ),
    _Property(
        "lambda_lower_bound", _digit_cells, lambda p, m, lam, rebuilt: m >= 1,
        lambda p, m, lam, rebuilt: lam >= m - p + 1,
        lambda p, m, lam, rebuilt: f"p={p}, m={m}: lambda={lam} < {m - p + 1}",
    ),
    _Property(  # the base-p digits of m sum back to m
        "digit_reconstruction", _digit_cells, None,
        lambda p, m, lam, rebuilt: rebuilt == m,
        lambda p, m, lam, rebuilt: f"p={p}, m={m}: digits rebuild to {rebuilt}",
    ),
    _Property(
        "valuation_additivity", _VALUATIONS, None,
        lambda p, k, n: valuation(p, p**k * n) == k + valuation(p, n),
        lambda p, k, n: f"p={p}, k={k}, n={n}",
    ),
    _Property(
        "b0_le_bk_prime", _bound_cells, None,
        lambda p, d, bk_prime, b0: b0 <= bk_prime,
        lambda p, d, bk_prime, b0: f"p={p}, d={d}: b0={b0} > bk_prime={bk_prime}",
    ),
    _Property(
        "equality_when_p_ge_2d_plus_1", _bound_cells, lambda p, d, bk_prime, b0: p >= 2 * d + 1,
        lambda p, d, bk_prime, b0: b0 == bk_prime,
        lambda p, d, bk_prime, b0: f"p={p}, d={d}: {b0} != {bk_prime}",
    ),
    _Property(
        "strict_when_p_ge_5_nondivisor", _bound_cells,
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
        "bk_prime_piecewise_large_p", _bound_cells, lambda p, d, bk_prime, b0: p >= 5 and p >= d and p != d + 1,
        lambda p, d, bk_prime, b0: bk_prime == _piecewise_value(p, d),
        lambda p, d, bk_prime, b0: f"p={p}, d={d}: bk_prime={bk_prime} != {_piecewise_value(p, d)}",
    ),
    _Property(
        "bk_prime_small_p_values", _small_p_cells, None,
        lambda p, d, value, exact: _meets(bk_prime_bound(p, d), value, exact),
        lambda p, d, value, exact: f"p={p}, d={d}: bk_prime={bk_prime_bound(p, d)} {'!=' if exact else '<'} {value}",
    ),
    _Property(
        "bk_prime_divisor_case", _bound_cells, lambda p, d, bk_prime, b0: (2 * d) % (p - 1) == 0,
        lambda p, d, bk_prime, b0: _meets(bk_prime, *_divisor_floor(p, d)), _divisor_explain,
    ),
    _Property(
        "bk_prime_floor_identity", _oracle_cells, None,
        lambda p, d, scan, b0: bk_prime_bound(p, d) == bk_bound(p, d) // d,
        lambda p, d, scan, b0: f"p={p}, d={d}",
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
    _Property(  # the closed form against a sieve over every exponent's forced degree
        "b0_equals_forced_degree_oracle", _oracle_cells, None,
        lambda p, d, scan, b0: scan == b0,
        lambda p, d, scan, b0: f"p={p}, d={d}: oracle={scan}, b0={b0}",
    ),
    _Property(  # a lone prime at b0 is admissible, one exponent higher is not
        "single_prime_boundary", _oracle_cells, None,
        lambda p, d, scan, cap: _admissible(p, d, cap) and not _admissible(p, d, cap + 1),
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


def _run(properties, p_max: int, d_max: int) -> list[PropertyResult]:
    """The properties, in their order, each box walked once for all of its properties at (p_max, d_max);
    a property whose box returns None is left out."""
    primes = _checked_primes(p_max, d_max)
    boxes: dict[Callable, list[_Property]] = {}
    for prop in properties:
        boxes.setdefault(prop.box, []).append(prop)
    results = {}
    for box, shared in boxes.items():
        if (cells := box(p_max, d_max, primes)) is not None:
            results.update((result.name, result) for result in _walk(cells, shared))
    return [results[prop.name] for prop in properties if prop.name in results]


def check(name: str, p_max: int = 1000, d_max: int = 100) -> PropertyResult:
    """run_all(p_max, d_max)'s result for the property called name: the same box, checks and BOX_LIMIT.

    Raises ValueError for an unknown name, and where run_all does not report the property.
    """
    prop = _BY_NAME.get(name)
    if prop is None:
        raise ValueError(f"unknown property {name!r}; known: {', '.join(_BY_NAME)}")
    results = _run([prop], p_max, d_max)
    if not results:
        raise ValueError(f"run_all({p_max}, {d_max}) does not check {name}")
    return results[0]


# Views over check, kept because bench/workloads.py (VerifyBox.warm_up) calls them by position.
b0_le_bk_prime = partial(check, "b0_le_bk_prime")
single_prime_boundary = partial(check, "single_prime_boundary")


def run_all(p_max: int = 1000, d_max: int = 100) -> list[PropertyResult]:
    """Every property, in PROPERTIES order, each box at the sizes it takes for (p_max, d_max).

    p_max must be an int in 1..PMAX_LIMIT and d_max an int >= 1, with at
    most BOX_LIMIT cells to check.  Each box is walked once for all of its
    properties, so each cell's kernels run once.
    """
    return _run(PROPERTIES, p_max, d_max)


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

"""Pins what each verify property reports when it fails, and how run_all walks the table.

Each pin runs one property of ``verify.PROPERTIES`` alone through
``verify.check`` with one kernel, looked up in ``rmbounds.verify`` by name,
replaced so the property fails, and checks the exact first counterexample
and the case count.  Together they fix the iteration order of every case
box and the text of every failure message.
"""
from __future__ import annotations

import inspect
import tracemalloc
from collections import Counter

import pytest

from rmbounds import arith, bounds, verify
from rmbounds.arith import primes_up_to

real_bk = bounds.bk_bound
real_bk_prime = bounds.bk_prime_bound
real_b0 = bounds.b0_bound

SABOTAGE = {
    "zero": lambda *args: 0,
    "hundred": lambda *args: 100,
    "empty": lambda *args: [],
    "stray_high_digit": lambda p, m: [*arith._digits(p, m), 1],  # must show: every digit is read
    "negate_second": lambda p, n: -n,
    "bk_prime_plus_one": lambda p, d: real_bk(p, d) + d,  # replaces _bk: bk_prime = bk // d rises by one
    "b0_minus_one": lambda p, d: real_b0(p, d) - 1,
    "b0_hundred_from_p11_or_d5": lambda p, d: 100 if p >= 11 or d >= 5 else real_b0(p, d),
    "zero_p2_from_d4": lambda p, d: 0 if p == 2 and d >= 4 else real_bk_prime(p, d),
    "zero_p3_from_d3": lambda p, d: 0 if p == 3 and d >= 3 else real_bk_prime(p, d),
}

# (property name, sizes, kernel replaced, sabotage, cases, first counterexample)
PINS = [
    ("lambda_zero_iff_below_p", {"p_max": 7}, "_lambda", "zero", 10004, "p=2, m=2: lambda=0"),
    ("lambda_lower_bound", {"p_max": 7}, "_lambda", "zero", 10000, "p=2, m=2: lambda=0 < 1"),
    ("digit_reconstruction", {"p_max": 7}, "_digits", "empty", 10004,
     "p=2, m=1: digits rebuild to 0"),
    ("digit_reconstruction", {"p_max": 7}, "_digits", "stray_high_digit", 10004,
     "p=2, m=0: digits rebuild to 1"),
    ("valuation_additivity", {"p_max": 7}, "valuation", "zero", 224, "p=2, k=1, n=1"),
    ("b0_le_bk_prime", {"p_max": 50, "d_max": 10}, "_b0", "hundred", 150, "p=2, d=1: b0=100 > bk_prime=8"),
    ("b0_le_bk_prime", {"p_max": 50, "d_max": 10}, "_b0", "b0_hundred_from_p11_or_d5", 150,
     "p=2, d=5: b0=100 > bk_prime=11"),
    ("equality_when_p_ge_2d_plus_1", {"p_max": 50, "d_max": 10}, "_b0", "hundred", 104, "p=3, d=1: 100 != 5"),
    ("strict_when_p_ge_5_nondivisor", {"p_max": 50, "d_max": 10}, "_b0", "hundred", 20, "p=5, d=3"),
    ("strict_when_p_le_3_nondivisor", {"d_max": 20}, "b0_bound", "hundred", 20, "p=2, d=5"),
    ("bk_prime_piecewise_large_p", {"p_max": 50, "d_max": 10}, "_bk", "zero", 119,
     "p=5, d=1: bk_prime=0 != 2"),
    ("bk_prime_small_p_values", {"d_max": 20}, "bk_prime_bound", "zero", 40, "p=3, d=1: bk_prime=0 != 5"),
    ("bk_prime_small_p_values", {"d_max": 20}, "bk_prime_bound", "zero_p2_from_d4", 40, "p=2, d=4: bk_prime=0 < 9"),
    ("bk_prime_small_p_values", {"d_max": 20}, "bk_prime_bound", "zero_p3_from_d3", 40, "p=3, d=3: bk_prime=0 < 6"),
    ("bk_prime_divisor_case", {"p_max": 50, "d_max": 10}, "_bk", "zero", 33,
     "p=2, d=1: bk_prime=0 < 8"),
    ("bk_prime_divisor_case", {"p_max": 50, "d_max": 10}, "_bk", "bk_prime_plus_one", 33,
     "p=2, d=1: equality expected, bk_prime=9 != 8"),
    ("bk_prime_floor_identity", {"p_max": 50, "d_max": 10}, "bk_prime_bound", "zero", 150, "p=2, d=1"),
    ("forced_exponent_monotone", {"p_max": 20}, "forced_subfield_exponent", "negate_second", 328,
     "p=2, e=1: r drops 0 -> -1"),
    ("cyclotomic_degree_monotone", {"p_max": 20}, "real_cyclotomic_degree", "negate_second", 248,
     "p=2, r=1"),
    ("b0_equals_forced_degree_oracle", {"p_max": 20, "d_max": 10}, "b0_bound", "hundred", 80,
     "p=2, d=1: oracle=8, b0=100"),
    ("b0_equals_forced_degree_oracle", {"p_max": 20, "d_max": 10}, "b0_bound",
     "b0_hundred_from_p11_or_d5", 80, "p=2, d=5: oracle=8, b0=100"),
    ("single_prime_boundary", {"p_max": 20, "d_max": 10}, "b0_bound", "hundred", 80,
     "p=2, d=1: exponent 100 not admissible"),
    ("single_prime_boundary", {"p_max": 20, "d_max": 10}, "b0_bound", "b0_minus_one", 80,
     "p=2, d=1: exponent 8 not ruled out"),
    ("reference_grid_d10", {}, "b0_bound", "hundred", 53, "p=2, d=1: got (8, 100), expected (8, 8)"),
    ("reference_grid_d10", {}, "b0_bound", "b0_hundred_from_p11_or_d5", 53,
     "p=2, d=5: got (11, 100), expected (11, 8)"),
]

# PropertyResult.name and case count of each run_all entry at --pmax 19 --dmax 10, in order.
RUN_ALL_19_10 = [
    ("lambda_zero_iff_below_p", 20008), ("lambda_lower_bound", 20000), ("digit_reconstruction", 20008),
    ("valuation_additivity", 448), ("b0_le_bk_prime", 80), ("equality_when_p_ge_2d_plus_1", 34),
    ("strict_when_p_ge_5_nondivisor", 20), ("strict_when_p_le_3_nondivisor", 8),
    ("bk_prime_piecewise_large_p", 49), ("bk_prime_small_p_values", 20), ("bk_prime_divisor_case", 33),
    ("bk_prime_floor_identity", 80), ("forced_exponent_monotone", 328), ("cyclotomic_degree_monotone", 248),
    ("b0_equals_forced_degree_oracle", 80), ("single_prime_boundary", 80), ("reference_grid_d10", 53),
]

# The same at the CLI default box (1000, 100) and at the benchmark's box (2000, 150).
RUN_ALL_1000_100 = [
    ("lambda_zero_iff_below_p", 37515), ("lambda_lower_bound", 37500), ("digit_reconstruction", 37515),
    ("valuation_additivity", 840), ("b0_le_bk_prime", 16800), ("equality_when_p_ge_2d_plus_1", 14290),
    ("strict_when_p_ge_5_nondivisor", 2127), ("strict_when_p_le_3_nondivisor", 113),
    ("bk_prime_piecewise_large_p", 15331), ("bk_prime_small_p_values", 200), ("bk_prime_divisor_case", 428),
    ("bk_prime_floor_identity", 2944), ("forced_exponent_monotone", 1886), ("cyclotomic_degree_monotone", 1426),
    ("b0_equals_forced_degree_oracle", 2944), ("single_prime_boundary", 2944), ("reference_grid_d10", 53),
]
RUN_ALL_2000_150 = [
    ("lambda_zero_iff_below_p", 37515), ("lambda_lower_bound", 37500), ("digit_reconstruction", 37515),
    ("valuation_additivity", 840), ("b0_le_bk_prime", 45450), ("equality_when_p_ge_2d_plus_1", 40256),
    ("strict_when_p_ge_5_nondivisor", 4592), ("strict_when_p_le_3_nondivisor", 171),
    ("bk_prime_piecewise_large_p", 42437), ("bk_prime_small_p_values", 300), ("bk_prime_divisor_case", 663),
    ("bk_prime_floor_identity", 2944), ("forced_exponent_monotone", 1886), ("cyclotomic_degree_monotone", 1426),
    ("b0_equals_forced_degree_oracle", 2944), ("single_prime_boundary", 2944), ("reference_grid_d10", 53),
]

# (property name, sizes, kernels it calls, calls of each): every kernel
# value that does not depend on d is computed once per prime (8 primes <= 20).
KERNEL_CALLS = [
    ("b0_equals_forced_degree_oracle", {"p_max": 20, "d_max": 10},
     ("forced_subfield_exponent", "real_cyclotomic_degree"), 8 * 40),
    ("forced_exponent_monotone", {"p_max": 20}, ("forced_subfield_exponent",), 8 * 41),
    ("cyclotomic_degree_monotone", {"p_max": 20}, ("real_cyclotomic_degree",), 8 * 31),
]


def test_every_property_is_pinned():
    assert {pin[0] for pin in PINS} == {prop.name for prop in verify.PROPERTIES}


def test_public_functions_are_the_table_entry_points():
    functions = {
        name for name, value in vars(verify).items()
        if inspect.isfunction(value) and value.__module__ == verify.__name__ and not name.startswith("_")
    }
    assert functions == {"run_all", "check", "format_report", "b0_le_bk_prime", "single_prime_boundary"}


def test_kept_views_match_check():
    assert verify.b0_le_bk_prime(50, 10) == verify.check("b0_le_bk_prime", p_max=50, d_max=10)
    assert verify.single_prime_boundary(20, 6) == verify.check("single_prime_boundary", p_max=20, d_max=6)


def test_check_rejects_an_unknown_property():
    with pytest.raises(ValueError) as info:
        verify.check("strict_case_a")
    assert str(info.value).startswith("unknown property 'strict_case_a'; known: lambda_zero_iff_below_p, ")
    assert str(info.value).endswith(", single_prime_boundary, reference_grid_d10")


def test_check_takes_run_all_sizes_only():
    parameters = inspect.signature(verify.check).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [("name", inspect.Parameter.empty), ("p_max", 1000),
                                                         ("d_max", 100)]
    with pytest.raises(TypeError):
        verify.check("lambda_zero_iff_below_p", p_max=2, m_max=10**6)


# Boxes where run_all reports every property, skips the reference grid (below (19, 10)),
# holds no prime (p_max 1) or clamps the digit, valuation, oracle and monotone boxes.
MATCH_BOXES = [(19, 10), (2, 1), (1, 31), (50, 10), (20, 6)]


@pytest.mark.parametrize("p_max, d_max", MATCH_BOXES, ids=[f"{p}-{d}" for p, d in MATCH_BOXES])
def test_check_is_run_all_for_one_property(p_max, d_max):
    reported = {result.name: result for result in verify.run_all(p_max, d_max)}
    assert ("reference_grid_d10" in reported) == (p_max >= 19 and d_max >= 10)
    for prop in verify.PROPERTIES:
        if prop.name in reported:
            assert verify.check(prop.name, p_max, d_max) == reported[prop.name]
        else:
            with pytest.raises(ValueError, match=rf"^run_all\({p_max}, {d_max}\) does not check {prop.name}$"):
                verify.check(prop.name, p_max, d_max)


def test_check_answers_a_box_whose_cells_ignore_p_max():
    # the small-p values hold 5 exact cases and the floors at p = 2 (d >= 4) and p = 3 (d >= 3)
    result = verify.check("bk_prime_small_p_values", p_max=1, d_max=10**5)
    assert (result.ok, result.cases, result.counterexample) == (True, 200_000, None)
    with pytest.raises(ValueError, match=r"^run_all\(2, 1\) does not check reference_grid_d10$"):
        verify.check("reference_grid_d10", p_max=2, d_max=1)


# (p_max, d_max, message): run_all takes ints >= 1 only, as the CLI's --pmax and --dmax do,
# and at most BOX_LIMIT cells.
BAD_SIZES = [
    (2.5, 3, "p_max 2.5 is not an integer"),
    (19, 10.0, "d_max 10.0 is not an integer"),
    (True, 1, "p_max True is not an integer"),
    (-3, 5, "expected p_max >= 1, got -3"),
    (1000, 100000, "verify over 168 primes and d <= 100000 checks 17200000 cells, more than 1000000"),
]


@pytest.mark.parametrize("p_max, d_max, message", BAD_SIZES, ids=[f"{p}-{d}" for p, d, _ in BAD_SIZES])
def test_run_all_rejects_bad_sizes(p_max, d_max, message):
    with pytest.raises(ValueError) as info:
        verify.run_all(p_max, d_max)
    assert str(info.value) == message


# (sizes, message): check applies run_all's rules to p_max and d_max, at run_all's defaults when not given.
CHECK_BAD_SIZES = [
    ({"p_max": 10**7 + 1, "d_max": 0}, "expected p_max <= 10000000, got 10000001"),
    ({"p_max": 50, "d_max": True}, "d_max True is not an integer"),
    ({"p_max": 2.5}, "p_max 2.5 is not an integer"),
    ({"d_max": 100000}, "verify over 168 primes and d <= 100000 checks 17200000 cells, more than 1000000"),
]


@pytest.mark.parametrize("sizes, message", CHECK_BAD_SIZES, ids=[str(sizes) for sizes, _ in CHECK_BAD_SIZES])
def test_check_rejects_bad_sizes_before_any_walk(monkeypatch, sizes, message):
    monkeypatch.setattr(verify, "_walk", lambda *args: pytest.fail("a box was walked"))
    with pytest.raises(ValueError) as info:
        verify.check("b0_le_bk_prime", **sizes)
    assert str(info.value) == message


@pytest.mark.parametrize("call", [lambda: verify.run_all(1000, 10), lambda: [verify.check("b0_le_bk_prime", d_max=10)]],
                         ids=["run_all", "check"])
def test_p_max_is_sieved_once(monkeypatch, call):
    sieved = []
    real_sieve = arith._sieve
    monkeypatch.setattr(arith, "_sieve", lambda bound: sieved.append(bound) or real_sieve(bound))
    assert all(result.ok for result in call())
    assert sieved.count(1000) == 1  # the bound box walks the primes the BOX_LIMIT count listed


@pytest.mark.parametrize("name, sizes, kernel, sabotage, cases, counterexample", PINS,
                         ids=[f"{pin[0]}-{pin[3]}" for pin in PINS])
def test_first_counterexample_is_pinned(monkeypatch, name, sizes, kernel, sabotage, cases, counterexample):
    monkeypatch.setattr(verify, kernel, SABOTAGE[sabotage])
    result = verify.check(name, **sizes)
    assert (result.ok, result.cases, result.counterexample) == (False, cases, counterexample)


def test_run_all_order_and_case_counts():
    assert [(r.name, r.cases) for r in verify.run_all(19, 10)] == RUN_ALL_19_10


@pytest.mark.parametrize("p_max, d_max, expected", [(1000, 100, RUN_ALL_1000_100), (2000, 150, RUN_ALL_2000_150)],
                         ids=["cli-default", "benchmark-box"])
def test_run_all_order_and_case_counts_at_larger_boxes(p_max, d_max, expected):
    results = verify.run_all(p_max, d_max)
    assert [(r.name, r.cases) for r in results] == expected
    assert all(r.ok for r in results)


def count_calls(monkeypatch, kernels) -> dict[str, int]:
    """Wrap each named kernel of verify to count its calls; the counts fill in as the kernels run."""
    counts = dict.fromkeys(kernels, 0)
    def counted(name, kernel):
        def wrapper(*args):
            counts[name] += 1
            return kernel(*args)
        return wrapper
    for name in kernels:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    return counts


@pytest.mark.parametrize("name, sizes, kernels, calls", KERNEL_CALLS, ids=[entry[0] for entry in KERNEL_CALLS])
def test_kernels_run_once_per_prime_and_exponent(monkeypatch, name, sizes, kernels, calls):
    counts = count_calls(monkeypatch, kernels)
    assert verify.check(name, **sizes).ok
    assert counts == dict.fromkeys(kernels, calls)


# The properties run_all checks in one walk per box, each with the sizes run_all(p_max, d_max) gives its box.
SHARED_WALK = {
    **dict.fromkeys(["lambda_zero_iff_below_p", "lambda_lower_bound", "digit_reconstruction"], {"p_max": 7}),
    **dict.fromkeys(
        ["b0_le_bk_prime", "equality_when_p_ge_2d_plus_1", "strict_when_p_ge_5_nondivisor",
         "bk_prime_piecewise_large_p", "bk_prime_divisor_case"],
        {"p_max": 50, "d_max": 10},
    ),
    **dict.fromkeys(
        ["bk_prime_floor_identity", "b0_equals_forced_degree_oracle", "single_prime_boundary"],
        {"p_max": 20, "d_max": 10},
    ),
}
SHARED_PINS = [pin for pin in PINS if pin[0] in SHARED_WALK]


def test_shared_walks_cover_every_box_with_more_than_one_property():
    per_box = Counter(prop.box for prop in verify.PROPERTIES)
    assert set(SHARED_WALK) == {prop.name for prop in verify.PROPERTIES if per_box[prop.box] > 1}


def test_shared_walks_cover_their_pins():
    assert {pin[0] for pin in SHARED_PINS} == set(SHARED_WALK)


@pytest.mark.parametrize("name, sizes, kernel, sabotage, cases, counterexample", SHARED_PINS,
                         ids=[f"{pin[0]}-{pin[3]}" for pin in SHARED_PINS])
def test_shared_walk_matches_the_standalone_property(monkeypatch, name, sizes, kernel, sabotage, cases,
                                                     counterexample):
    box = SHARED_WALK[name]
    monkeypatch.setattr(verify, kernel, SABOTAGE[sabotage])
    standalone = verify.check(name, **box)
    shared = {result.name: result for result in verify.run_all(box["p_max"], box.get("d_max", 10))}
    assert not standalone.ok
    assert shared[standalone.name] == standalone


def test_shared_walks_run_each_kernel_once_per_cell(monkeypatch):
    counts = count_calls(monkeypatch, ("_bk", "_b0", "_lambda", "_digits"))
    assert all(result.ok for result in verify.run_all(19, 10))
    # 8 primes <= 19 times d = 1..10, and the 20,008 cases of lambda_zero_iff_below_p
    assert counts == {"_bk": 8 * 10, "_b0": 8 * 10, "_lambda": 8 * 2501, "_digits": 8 * 2501}


def test_checked_kernels_run_once_per_cell_or_per_prime(monkeypatch):
    counts = count_calls(monkeypatch, ("b0_bound", "bk_prime_bound", "forced_subfield_exponent",
                                       "real_cyclotomic_degree"))
    assert all(result.ok for result in verify.run_all(19, 10))
    # 8 primes <= 19: the (19, 10) oracle box lists e = 1..40 once per prime and b0 once per cell,
    # the monotone boxes list e = 0..40 and r = 0..30 once per prime, and the strict, small-p and
    # reference-grid properties have 8, 20 and 53 cases
    assert counts == {
        "b0_bound": 8 + 8 * 10 + 53,
        "bk_prime_bound": 8 + 20 + 8 * 10 + 53,
        "forced_subfield_exponent": 8 * 40 + 8 * 41,
        "real_cyclotomic_degree": 8 * 40 + 8 * 31,
    }


def test_report_marks_empty_properties():
    report = verify.format_report(verify.run_all(2, 1)).splitlines()
    empty = ["equality_when_p_ge_2d_plus_1", "strict_when_p_ge_5_nondivisor",
             "strict_when_p_le_3_nondivisor", "bk_prime_piecewise_large_p"]
    assert [line for line in report if line.startswith("EMPTY")] == [f"EMPTY {name} (0 cases)" for name in empty]
    assert sum(line.startswith("PASS") for line in report) == 12
    assert "PASS b0_le_bk_prime (1 cases)" in report
    assert report[-1] == "12/12 properties hold; 4 checked no case"


def test_report_of_a_box_with_cases_everywhere_has_no_empty_count():
    report = verify.format_report(verify.run_all(19, 10)).splitlines()
    assert all(line.startswith("PASS") for line in report[:-1])
    assert report[-1] == "17/17 properties hold"


BOUND_PROPERTIES = [prop for prop in verify.PROPERTIES if prop.box is verify._bound_cells]


def test_walk_does_not_depend_on_how_cells_split_into_rows(monkeypatch):
    monkeypatch.setattr(verify, "_b0", lambda p, d: 100 if p >= 11 else real_b0(p, d))
    walks, runs = [], []
    for row in (1, 7, 1024):  # a cell, a row spanning primes, the whole 150-cell box
        monkeypatch.setattr(verify, "_ROW", row)
        walks.append(verify._walk(verify._bound_cells(50, 10, primes_up_to(50)), BOUND_PROPERTIES))
        runs.append(verify.run_all(19, 10))
    assert walks[0] == walks[1] == walks[2]
    assert runs[0] == runs[1] == runs[2]
    first = {result.name: (result.cases, result.counterexample) for result in walks[0]}
    assert first["b0_le_bk_prime"] == (150, "p=11, d=1: b0=100 > bk_prime=2")  # the fifth prime's first cell


def test_a_row_holds_at_most_row_cells(monkeypatch):
    for row in (1, 7, verify._ROW):
        monkeypatch.setattr(verify, "_ROW", row)
        pulled = checked = 0
        ahead = []  # after each pull, the cells the walk has pulled but not yet checked

        def cells():
            nonlocal pulled
            for n in range(2 * row + 1):
                pulled += 1
                ahead.append(pulled - checked)
                yield (n,)

        def holds(n):
            nonlocal checked
            checked += 1
            return True

        spy = verify._Property("spy", None, None, holds, str)
        assert verify._walk(cells(), [spy]) == [verify.PropertyResult("spy", True, 2 * row + 1)]
        assert ahead == [*range(1, row + 1)] * 2 + [1]  # rows of row, row and 1 cells


# A box is never held whole: at (10000, 300) the bound box alone is 368,700
# cells, about 33 MB as tuples, while a walk peaks at about 0.2 MB.
PEAK_LIMIT_MB = 2


def test_run_all_holds_one_row_at_a_time():
    tracemalloc.start()
    try:
        results = verify.run_all(10000, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result.ok for result in results)
    assert peak < PEAK_LIMIT_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_box_limit_counts_the_small_p_boxes(monkeypatch):
    # 8 primes <= 19, and the small-p boxes take about 4 cells per d whatever p_max is
    monkeypatch.setattr(verify, "BOX_LIMIT", (8 + 4) * 10)
    assert all(result.ok for result in verify.run_all(19, 10))
    with pytest.raises(ValueError, match="checks 132 cells, more than 120"):
        verify.run_all(19, 11)
    with pytest.raises(ValueError, match="verify over 0 primes and d <= 31 checks 124 cells"):
        verify.run_all(1, 31)

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from math import isqrt

import pytest

from rmbounds import bounds, cli
from rmbounds.arith import _sieve, primes_up_to
from rmbounds.bounds import (
    BoundTriple,
    TableCell,
    _primes_b0_above_2,
    b0_bound,
    bk_bound,
    bk_prime_bound,
    forced_subfield_exponent,
    render_table,
)
from rmbounds.verify import REFERENCE_GRID_D10


def test_bk_examples():
    assert bk_bound(2, 1) == 8
    assert bk_bound(5, 2) == 9
    assert bk_bound(11, 1) == 2


def test_bk_prime_examples():
    assert bk_prime_bound(2, 2) == 10
    assert bk_prime_bound(3, 3) == 7
    assert bk_prime_bound(5, 10) == 6


def test_b0_examples():
    assert b0_bound(2, 8) == 14
    assert b0_bound(7, 3) == 4
    assert b0_bound(5, 3) == 2


def test_primes_b0_above_2_are_the_primes_where_b0_exceeds_2():
    # Bounds at and around 2d + 1, the largest such prime, and past it.
    for d in (*range(1, 121), 360, 720, 1009, 5040):
        for bound in sorted({1, 2, 3, 4, 5, 97, 2 * d, 2 * d + 1, 2 * d + 2, 3000}):
            expected = [p for p in primes_up_to(bound) if b0_bound(p, d) > 2]
            assert _primes_b0_above_2(d, bound) == expected, (d, bound)
    # Large d, whose trial division mostly runs out of sieve primes before isqrt(2d): 2**70 + 1, a highly
    # composite d, the prime 2**61 - 1, and 2d = 1008**2, where q = 1008 has q + 1 = 1009 prime.
    for d in (2**70 + 1, 6_983_776_800, 2**61 - 1, 1008**2 // 2):
        for bound in (1, 2, 3, 1008, 1009, 1010, 10**4, 10**5):
            expected = [p for p in primes_up_to(bound) if b0_bound(p, d) > 2]
            assert _primes_b0_above_2(d, bound) == expected, (d, bound)


def test_primes_b0_above_2_sieve_only_up_to_the_root_of_2d(monkeypatch):
    sieved = []
    monkeypatch.setattr(bounds, "_sieve", lambda bound: sieved.append(bound) or _sieve(bound))
    primes = _primes_b0_above_2(720720, 10**7)
    assert sieved and max(sieved) <= isqrt(2 * 720720) == 1200
    assert len(primes) == 98 and primes[-1] == 180_181  # 2d / 8 + 1


def test_forced_subfield_exponent_examples():
    assert forced_subfield_exponent(2, 9) == 3
    assert forced_subfield_exponent(3, 6) == 2
    assert forced_subfield_exponent(5, 3) == 1
    assert forced_subfield_exponent(2, 8) == 0
    assert forced_subfield_exponent(3, 5) == 1
    assert forced_subfield_exponent(3, 3) == 0  # nontrivial conclusion at p=3 needs e >= 6


def test_bound_functions_reject_bad_input():
    with pytest.raises(ValueError):
        bk_bound(4, 2)
    with pytest.raises(ValueError):
        b0_bound(5, 0)


def test_reference_grid():
    for (d, p), (expect_bp, expect_b0) in REFERENCE_GRID_D10.items():
        assert bk_prime_bound(p, d) == expect_bp, (p, d)
        assert b0_bound(p, d) == expect_b0, (p, d)


def test_render_table_layout():
    table = render_table(10, 19)
    # cells with p > 2d + 1 are omitted
    assert (1, 5) not in table.cells
    assert (4, 11) not in table.cells
    assert set(p for (_, p) in table.cells) == {2, 3, 5, 7, 11, 13, 17, 19}
    cell = table.cells[(6, 3)]
    assert cell.display == "7"
    cell = table.cells[(10, 3)]
    assert cell.display == "8 (5)"


def test_render_table_single_row():
    table = render_table(1, 3)
    assert sorted(table.cells) == [(1, 2), (1, 3)]
    assert table.cells[(1, 2)].display == "8"
    assert table.cells[(1, 3)].display == "5"


def test_render_table_full_includes_trivial_cells():
    table = render_table(1, 7, include_trivial=True)
    assert table.cells[(1, 7)].display == "2"


def test_render_table_merges_sharpness():
    table = render_table(2, 5, sharpness={(2, 1): "sharp", (5, 2): "none_found"})
    assert table.cells[(1, 2)].sharpness == "sharp"
    assert table.cells[(2, 5)].sharpness == "unknown"


def test_triple_invariants_on_grid():
    for d in range(1, 30):
        for p in (2, 3, 5, 7, 11, 13):
            t = BoundTriple.compute(p, d)
            assert t.b0 <= t.bk_prime
            assert t.bk_prime == 2 + (t.bk - 2 * d) // d
            assert t.b0 >= 2 and t.bk_prime >= 2


def test_cell_display_parenthesizes_iff_strict():
    for d in range(1, 15):
        for p in (2, 3, 5, 7):
            cell = TableCell(triple=BoundTriple.compute(p, d))
            assert ("(" in cell.display) == (cell.triple.b0 < cell.triple.bk_prime)


def test_json_round_trip():
    triple = BoundTriple.compute(3, 9)
    assert cli.parse_json(json.dumps({"command": "bound", **triple.to_json_dict()}), "bound") == triple
    cell = TableCell(triple=triple, sharpness="sharp")
    table = render_table(9, 3, sharpness={(3, 9): "sharp"})
    assert cli.parse_json(json.dumps({"command": "table", **table.to_json_dict()}), "table").cells[(9, 3)] == cell


@pytest.mark.parametrize("sharpness", ["bogus", "none_found", None])
def test_cell_rejects_an_unknown_sharpness(sharpness):
    with pytest.raises(ValueError, match="sharpness must be sharp, almost_sharp or unknown"):
        TableCell(triple=BoundTriple.compute(3, 9), sharpness=sharpness)


# -- the triple's public contract ---------------------------------------------------


def test_triple_repr_and_fields():
    assert repr(BoundTriple.compute(2, 8)) == "BoundTriple(p=2, d=8, bk=112, bk_prime=14, b0=14)"
    assert BoundTriple._fields == ("p", "d", "bk", "bk_prime", "b0")


def test_two_computes_of_one_cell_are_equal_and_hash_alike():
    first, second = BoundTriple.compute(3, 9), BoundTriple.compute(3, 9)
    assert first == second and first is not second
    assert hash(first) == hash(second)


@pytest.mark.parametrize("field", ["p", "d", "bk", "bk_prime", "b0"])
def test_a_triple_field_cannot_be_assigned(field):
    triple = BoundTriple.compute(3, 9)
    with pytest.raises(AttributeError):
        setattr(triple, field, 0)
    assert triple == BoundTriple.compute(3, 9)


def test_a_triple_is_a_tuple():
    triple = BoundTriple.compute(3, 9)
    assert triple == (3, 9, 81, 9, 9)
    p, d, bk, bk_prime, b0 = triple
    assert (bk, bk_prime, b0) == (81, 9, 9)
    assert sorted([BoundTriple.compute(3, 9), BoundTriple.compute(2, 8)])[0].p == 2
    assert triple._replace(b0=2) == (3, 9, 81, 9, 2)
    assert triple._asdict() == triple.to_json_dict() == {"p": 3, "d": 9, "bk": 81, "bk_prime": 9, "b0": 9}
    assert not dataclasses.is_dataclass(BoundTriple)


# Each way the library builds a triple: unchecked, through compute's checks, and as a table cell.
TRIPLE_BUILDERS = {
    "_triple": bounds._triple,
    "compute": BoundTriple.compute,
    "render_table": lambda p, d: render_table(d, p, include_trivial=True).cells[(d, p)].triple,
}


@pytest.mark.parametrize("builder", TRIPLE_BUILDERS)
@pytest.mark.parametrize("p, d, values", [(2, 8, (112, 14, 14)), (3, 9, (81, 9, 9)), (23, 5, (10, 2, 2))])
def test_every_built_triple_is_exactly_a_bound_triple(builder, p, d, values):
    triple = TRIPLE_BUILDERS[builder](p, d)
    plain = (p, d, *values)
    assert type(triple) is BoundTriple
    assert triple._fields == ("p", "d", "bk", "bk_prime", "b0")
    assert triple._asdict() == dict(zip(triple._fields, plain))
    assert type(triple._replace(b0=0)) is BoundTriple and triple._replace(b0=0) == (*plain[:4], 0)
    bk, bk_prime, b0 = values
    assert repr(triple) == f"BoundTriple(p={p}, d={d}, bk={bk}, bk_prime={bk_prime}, b0={b0})"
    pickled = [pickle.loads(pickle.dumps(triple, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in (*pickled, copy.copy(triple), copy.deepcopy(triple)):
        assert type(again) is BoundTriple and again == triple
    for equal in (BoundTriple(*plain), plain):
        assert triple == equal and hash(triple) == hash(equal)


def test_equal_tables_hash_equal():
    table, again = render_table(5, 7), render_table(5, 7)
    assert table == again and table is not again and hash(table) == hash(again)
    out = json.dumps({"command": "table", **table.to_json_dict()})
    rebuilt = cli.parse_json(out)
    assert rebuilt == table and hash(rebuilt) == hash(table)
    assert len({table, again, rebuilt, render_table(5, 7, include_trivial=True)}) == 2


@pytest.mark.parametrize("include_trivial", [False, True])
def test_render_table_cells_equal_computed_triples(include_trivial):
    table = render_table(30, 31, include_trivial=include_trivial)
    cells = [(d, p) for d in range(1, 31) for p in table.primes if include_trivial or p <= 2 * d + 1]
    assert sorted(table.cells) == sorted(cells)
    for (d, p), cell in table.cells.items():
        assert type(cell.triple) is BoundTriple
        assert cell.triple == BoundTriple.compute(p, d)

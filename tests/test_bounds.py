from __future__ import annotations

import dataclasses
import json

import pytest

from rmbounds import cli
from rmbounds.bounds import (
    BoundTriple,
    TableCell,
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


@pytest.mark.parametrize("include_trivial", [False, True])
def test_render_table_cells_equal_computed_triples(include_trivial):
    table = render_table(30, 31, include_trivial=include_trivial)
    cells = [(d, p) for d in range(1, 31) for p in table.primes if include_trivial or p <= 2 * d + 1]
    assert sorted(table.cells) == sorted(cells)
    for (d, p), cell in table.cells.items():
        assert type(cell.triple) is BoundTriple
        assert cell.triple == BoundTriple.compute(p, d)

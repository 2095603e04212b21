from importlib import resources

import numpy as np
import pytest

from conftest import exhaustive_column
from hullforge import witnesses
from hullforge.bounds import table5_cells, table5_lookup
from hullforge.code import LinearCode
from hullforge.construct import fixture
from hullforge.eaqecc import (
    EaqeccParams,
    corollary_family,
    derive_pair,
    pair_params,
    table6_cells,
    table6_entry,
    table7_comparison,
)
from hullforge.exceptions import OutOfRangeError, WrongHullDimensionError


def test_derive_pair_from_fixture():
    first, second = derive_pair(fixture("G_[9,4,5]").code())
    assert (first.n, first.k, first.d, first.c) == (9, 3, 5, 4)
    assert (second.n, second.k, second.c) == (9, 4, 3)
    # the second distance is the dual distance of the quaternary code
    dual_d = fixture("G_[9,4,5]").code().hermitian_dual().min_distance()
    assert second.d == dual_d
    # the same pair from the parameters alone, unknown distances kept as None
    assert pair_params(9, 4, 5, dual_d) == (first, second)
    assert pair_params(9, 4, None, None) == (EaqeccParams(9, 3, None, 4),
                                             EaqeccParams(9, 4, None, 3))


def test_derive_pair_requires_hull_one():
    lcd = LinearCode.from_generator(np.eye(3, dtype=np.uint8))
    with pytest.raises(WrongHullDimensionError):
        derive_pair(lcd)


def test_params_str():
    assert str(EaqeccParams(9, 3, 5, 4)) == "[[9,3,5;4]]"
    assert str(EaqeccParams(9, 3, None, 4)) == "[[9,3,?;4]]"


def test_corollary_family_values():
    assert corollary_family(0, 7) == EaqeccParams(7, 2, 4, 3)
    assert corollary_family(1, 0) == EaqeccParams(21, 2, 15, 17)
    assert corollary_family(1, 1) == EaqeccParams(22, 2, 16, 18)
    # the open residue carries the bound-derived value
    assert corollary_family(2, 5).d == 34
    with pytest.raises(OutOfRangeError):
        corollary_family(0, 3)
    with pytest.raises(OutOfRangeError):
        corollary_family(0, 21)


def test_corollary_family_matches_direct_derivation():
    # family members at small lengths coincide with derive_pair on the
    # exhaustive [n, 3] witnesses
    column = exhaustive_column(12, 3)
    for n in (7, 10, 12):
        fam = corollary_family(0, n)
        code = column[n].witness
        first, _ = derive_pair(code)
        assert (fam.n, fam.k, fam.d, fam.c) == (first.n, first.k, first.d, first.c)


def test_table6_cell_count_and_shape():
    cells = list(table6_cells())
    assert len(cells) == sum(n - 1 for n in range(2, 13))
    for n, k, (d, c) in cells:
        assert c == n - k - 2  # c = n - (k+1) - 1 for quaternary dim k+1
        assert d == table5_lookup(n, k + 1)


def test_table6_entries_recompute_from_witnesses():
    for n, k, expected in table6_cells():
        assert table6_entry(n, k) == expected, (n, k)


def test_table6_entry_out_of_range():
    with pytest.raises(OutOfRangeError):
        table6_entry(13, 0)
    with pytest.raises(OutOfRangeError):
        table6_entry(12, 11)


def test_witness_registry_complete():
    # one W_[n,k].g4m per cell of the n <= 12 table and none extra
    root = resources.files("hullforge").joinpath("data/witnesses")
    names = {entry.name for entry in root.iterdir()}
    assert names == {f"W_[{n},{k}].g4m" for n, k, _ in table5_cells()}
    assert len(names) == 66


def test_witness_out_of_range():
    with pytest.raises(OutOfRangeError):
        witnesses.witness(40, 2)


def test_table6_cell_of_the_readme_note():
    # the hull-1 [10, 7, 3] code gives [[10,6,3;2]]; the widely circulated
    # rendering of the table prints [3;3] here
    assert {(n, k): dc for n, k, dc in table6_cells()}[(10, 6)] == (3, 2)
    assert table6_entry(10, 6) == (3, 2)


# d of the family member [[n,2,d;n-4]] on each comparison row, pinned apart
# from `corollary_family`
_TABLE7_OURS_D = {13: 9, 14: 10, 16: 11, 17: 12, 18: 13, 19: 14, 20: 14, 22: 16}


def test_table7_rows_improve_over_references():
    report = table7_comparison()
    assert {row["n"] for row in report} == {13, 14, 16, 17, 18, 19, 20, 22}
    for row in report:
        ours = row["ours"]
        assert ours.k == 2 and ours.c == ours.n - 4
        assert ours.d == _TABLE7_OURS_D[row["n"]]
        assert row["better_distance_at_cost"], row["n"]

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hullforge.bounds import (
    DhKind,
    dh_closed_form,
    griesmer_holds,
    griesmer_max_d,
    k3_value,
    sphere_packing_holds,
    sphere_packing_max_d,
    table5_cells,
    table5_lookup,
)
from hullforge.exceptions import OutOfRangeError


def test_griesmer_examples():
    # [5, 2, 4] quaternary: 4 + 1 = 5 columns needed
    assert griesmer_holds(5, 2, 4)
    assert not griesmer_holds(4, 2, 4)
    assert griesmer_max_d(5, 2) == 4
    assert griesmer_max_d(21, 3) == 16
    assert griesmer_max_d(7, 7) == 1


def test_griesmer_oracle_by_direct_sum():
    # independent re-derivation of the partial sums for a few cases
    from math import ceil

    for n, k in ((9, 3), (14, 4), (22, 3)):
        d = griesmer_max_d(n, k)
        assert sum(ceil(d / 4**i) for i in range(k)) <= n
        assert sum(ceil((d + 1) / 4**i) for i in range(k)) > n


def test_sphere_packing_examples():
    assert sphere_packing_max_d(6, 4) == 2
    assert sphere_packing_max_d(22, 19) == 2
    for n in (1, 5, 9):
        assert sphere_packing_max_d(n, n) == 1


def test_sphere_packing_hamming_code():
    # the [5, 3] quaternary Hamming code is perfect with d = 3; d = 4 shares
    # the same packing radius, so the first strict failure is d = 5
    assert sphere_packing_holds(5, 3, 3)
    assert not sphere_packing_holds(5, 3, 5)
    assert sphere_packing_max_d(5, 3) == 3


@given(st.integers(2, 30), st.data())
def test_max_d_values_are_consistent(n, data):
    k = data.draw(st.integers(1, n))
    g = griesmer_max_d(n, k)
    s = sphere_packing_max_d(n, k)
    assert 1 <= s <= n - k + 1
    assert griesmer_holds(n, k, g)
    assert not griesmer_holds(n, k, g + 1)
    assert sphere_packing_holds(n, k, s)
    assert s == n - k + 1 or not sphere_packing_holds(n, k, s + 1)


def test_k1_values():
    assert dh_closed_form(6, 1).d == 6
    assert dh_closed_form(7, 1).d == 6
    assert dh_closed_form(2, 1).d == 2
    assert all(dh_closed_form(n, 1).exact for n in range(2, 30))


def test_k2_values():
    # 4n/5 with a unit drop at residues 0 and 3 (mod 5)
    expected = {3: 1, 4: 3, 5: 3, 6: 4, 7: 5, 8: 5, 9: 7, 10: 7, 11: 8,
                12: 9, 13: 9, 14: 11, 15: 11}
    for n, d in expected.items():
        v = dh_closed_form(n, 2)
        assert v.exact and v.d == d, n


def test_k3_values_first_period():
    expected = {4: 2, 5: 2, 6: 3, 7: 4, 8: 5, 9: 6, 10: 6, 11: 7, 12: 8,
                13: 9, 14: 10, 15: 10, 16: 11, 17: 12, 18: 13, 19: 14,
                20: 14, 21: 15, 22: 16, 23: 16, 24: 17, 25: 18}
    for n, d in expected.items():
        v = k3_value(n)
        assert v.d == d, n
        assert v.exact, n


def test_k3_open_residue():
    assert k3_value(5).exact and k3_value(5).d == 2
    assert k3_value(26).exact and k3_value(26).d == 18
    v = k3_value(47)  # 21*2 + 5, unsettled
    assert v.kind is DhKind.LOWER_BOUND and v.d == 34


def test_k3_range_check():
    with pytest.raises(OutOfRangeError):
        k3_value(3)


def test_high_dimension_values():
    assert dh_closed_form(6, 5).d == 2   # k = n - 1, even
    assert dh_closed_form(7, 6).d == 1   # k = n - 1, odd
    assert dh_closed_form(4, 2).d == 3   # k = n - 2, n = 4 special
    assert dh_closed_form(9, 7).d == 2   # k = n - 2
    assert dh_closed_form(4, 1).d == 4   # k = n - 3, n = 4 special
    assert dh_closed_form(12, 9).d == 3  # k = n - 3, 5 <= n <= 19
    assert dh_closed_form(20, 17).d == 2  # k = n - 3, n >= 20


def test_closed_form_uncovered_cells():
    assert dh_closed_form(12, 5) is None
    assert dh_closed_form(20, 8) is None
    assert dh_closed_form(1, 1) is None


def test_closed_form_precedence_on_small_n():
    # for tiny n a dimension matches several branches; the table must agree
    for n, k, d in table5_cells():
        v = dh_closed_form(n, k)
        if v is not None:
            assert v.exact and v.d == d, (n, k)


def test_table5_lookup():
    assert table5_lookup(12, 6) == 6
    assert table5_lookup(10, 5) == 5
    assert table5_lookup(2, 1) == 2
    with pytest.raises(OutOfRangeError):
        table5_lookup(13, 1)
    with pytest.raises(OutOfRangeError):
        table5_lookup(5, 5)


def test_table5_cell_count():
    cells = list(table5_cells())
    assert len(cells) == sum(n - 1 for n in range(2, 13))


def test_table5_within_classical_bounds():
    for n, k, d in table5_cells():
        assert griesmer_holds(n, k, d)
        assert d <= sphere_packing_max_d(n, k)

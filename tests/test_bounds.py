import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hullforge import gf4
from hullforge.bounds import (
    dh_closed_form,
    griesmer_holds,
    griesmer_max_d,
    k3_value,
    sphere_packing_holds,
    sphere_packing_max_d,
    table5_cells,
    table5_lookup,
)
from hullforge.code import LinearCode
from hullforge.construct import (
    MultiplicityVector,
    code_from_multiplicity,
    distance_two_code,
    even_length_check_matrix,
)
from hullforge.exceptions import OutOfRangeError
from hullforge.hull import hull_dim


def test_griesmer_examples():
    # [5, 2, 4] quaternary: 4 + 1 = 5 columns needed
    assert griesmer_holds(5, 2, 4)
    assert not griesmer_holds(4, 2, 4)
    assert griesmer_max_d(5, 2) == 4
    assert griesmer_max_d(21, 3) == 16
    assert griesmer_max_d(7, 7) == 1
    for n, k in ((3, 4), (3, 0)):
        with pytest.raises(ValueError):
            griesmer_max_d(n, k)


def test_griesmer_oracle_by_direct_sum():
    # independent re-derivation of the partial sums for a few cases
    from math import ceil

    for n, k in ((9, 3), (14, 4), (22, 3)):
        d = griesmer_max_d(n, k)
        assert sum(ceil(d / 4**i) for i in range(k)) <= n
        assert sum(ceil((d + 1) / 4**i) for i in range(k)) > n


def test_griesmer_holds_matches_direct_sum():
    for n in range(1, 41):
        for k in range(1, n + 1):
            for d in range(n + 2):
                direct = sum(-(-d // 4**i) for i in range(k))
                assert griesmer_holds(n, k, d) == (n >= direct), (n, k, d)


def test_griesmer_max_d_matches_linear_scan():
    # the one-step-at-a-time scan, resumed from the answer at n - 1: the
    # answer is nondecreasing in n because griesmer_holds is
    for k in range(1, 301):
        d = 0
        for n in range(k, 301):
            while griesmer_holds(n, k, d + 1):
                d += 1
            assert griesmer_max_d(n, k) == d, (n, k)


def test_sphere_packing_examples():
    assert sphere_packing_max_d(6, 4) == 2
    assert sphere_packing_max_d(22, 19) == 2
    for n in (1, 5, 9):
        assert sphere_packing_max_d(n, n) == 1
    with pytest.raises(ValueError):
        sphere_packing_max_d(3, 4)


def test_sphere_packing_hamming_code():
    # the [5, 3] quaternary Hamming code is perfect with d = 3; d = 4 shares
    # the same packing radius, so the first strict failure is d = 5
    assert sphere_packing_holds(5, 3, 3)
    assert not sphere_packing_holds(5, 3, 5)
    assert sphere_packing_max_d(5, 3) == 3


def test_sphere_packing_never_binds_below_griesmer_at_low_dimension():
    # why exhaustive_dh scans d from the Griesmer bound alone: the packing
    # lemma in its docstring covers n >= 14, this range the rest and more
    for k in (1, 2, 3):
        for n in range(k, 401):
            assert sphere_packing_max_d(n, k) >= griesmer_max_d(n, k), (n, k)


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
    assert v.exact is False and v.d == 34


def test_k3_range_check():
    with pytest.raises(OutOfRangeError):
        k3_value(3)


@pytest.mark.parametrize("k, period, gain", [(1, 2, 2), (2, 5, 4), (3, 21, 16)])
def test_low_dimension_values_are_periodic(k, period, gain):
    # the Griesmer bound grows by `gain` per period and the deficit
    # residues repeat; `exact` changes across a period only from the
    # settled n = 26 to the open n = 47
    for n in range(k + 1, 2001 - period):
        v, w = dh_closed_form(n, k), dh_closed_form(n + period, k)
        assert w.d == v.d + gain, n
        assert (w.exact == v.exact) != ((n, k) == (26, 3)), n


def test_k1_parity_lemma_on_codes():
    # the k = 1 lemma at `_DEFICITS` on every nonzero row of length <= 6:
    # its Gram is its weight mod 2, so the [n, 1] code is hull-1 exactly
    # when the weight is even, and its distance is the weight
    for n in range(1, 7):
        for row in itertools.product(range(4), repeat=n):
            if not any(row):
                continue
            code = LinearCode.from_generator([row])
            weight = sum(x > 0 for x in row)
            assert (hull_dim(code) == 1) == (weight % 2 == 0), row
            assert code.min_distance() == weight, row


def test_k1_column_is_a_parity_count():
    # integer arithmetic only: an [L, 1] code with no zero column has
    # distance L and is hull-1 exactly when L is even, so the largest d
    # over lengths L <= n is the largest even L
    best = 0
    for n in range(2, 2001):
        if n % 2 == 0:
            best = max(best, n)
        assert best == dh_closed_form(n, 1).d == n - n % 2, n


def _k2_hull_one(length, top):
    # some m in [0, top]^5 with sum `length` and 1 or 4 odd entries: the odd
    # entries lie in [1, top_odd], the even ones in [0, top_even], and steps
    # of 2 reach every sum of the right parity in between
    if top < 1:
        return False
    top_odd, top_even = top - (top % 2 == 0), top - top % 2
    return any(odd <= length <= odd * top_odd + (5 - odd) * top_even
               for odd in (1, 4) if odd % 2 == length % 2)


def test_k2_parity_lemma_on_codes():
    # the lemma at `_DEFICITS` on every [L, 2] code with m_i <= 3
    for m in itertools.product(range(4), repeat=5):
        if sum(x > 0 for x in m) < 2:
            continue
        code = code_from_multiplicity(MultiplicityVector(2, m))
        odd = sum(x % 2 for x in m)
        assert (hull_dim(code) == 1) == (odd in (1, 4)), m
        assert code.min_distance() == sum(m) - max(m), m


def test_k2_parity_count_criterion():
    # the range form of `_k2_hull_one` against all m for short lengths
    for length in range(1, 16):
        for top in range(length + 1):
            want = any(sum(m) == length and sum(x % 2 for x in m) in (1, 4)
                       for m in itertools.product(range(top + 1), repeat=5))
            assert _k2_hull_one(length, top) == want, (length, top)


def test_k2_column_is_a_parity_count():
    # integer arithmetic only: the largest d over lengths L <= n with some
    # hull-1 m of every m_i <= L - d (d >= 1 forces two nonzero m_i)
    best = 0
    for n in range(2, 2001):
        top = next((top for top in range(-(-n // 5), n)
                    if _k2_hull_one(n, top)), n)
        best = max(best, n - top)
        if n >= 3:
            assert best == dh_closed_form(n, 2).d, n


def test_k_n_minus_3_on_the_dual_side():
    # n distinct points of PG(2,4) as a hull-1 [n, 3] code; its Hermitian
    # dual is a hull-1 [n, n - 3, 3] code
    for n in range(13, 20):
        rng = np.random.default_rng(n)
        for _ in range(11):
            m = np.zeros(21, dtype=int)
            m[rng.choice(21, n, replace=False)] = 1
            code = code_from_multiplicity(MultiplicityVector(3, tuple(m.tolist())))
            if hull_dim(code) == 1:
                break
        dual = code.hermitian_dual()
        assert (dual.k, hull_dim(dual), dual.min_distance()) == (n - 3, 1, 3), n
        assert dh_closed_form(n, n - 3).d == 3, n
    # n = 20 and 21: none of the 21 + 1 point sets is hull-1, and n >= 22
    # has none at all, so d <= 2; distance_two_code reaches it
    for n in (20, 21):
        for drop in itertools.combinations(range(21), 21 - n):
            m = tuple(int(i not in drop) for i in range(21))
            assert hull_dim(code_from_multiplicity(MultiplicityVector(3, m))) != 1
    for n in range(20, 61):
        code = distance_two_code(n, 3)
        assert (code.k, hull_dim(code), code.min_distance()) == (n - 3, 1, 2), n
        assert dh_closed_form(n, n - 3).d == 2, n


def test_k_n_minus_1_on_the_dual_side():
    # integer arithmetic only: the Hermitian dual of an [n, n - 1] code is
    # an [n, 1] code, which shares its hull.  With L nonzero columns, all on
    # the one point of PG(0,4), it is hull-1 exactly when L is even (the
    # k = 1 lemma), and n - L zero columns put weight-1 words in the code,
    # so d = 2 needs L = n, and Singleton allows no more
    for n in range(5, 2001):
        best = max(1 + (nonzero == n) for nonzero in range(2, n + 1, 2))
        assert dh_closed_form(n, n - 1).d == best == 2 - n % 2, n


def test_k_n_minus_2_on_the_dual_side():
    # integer arithmetic only: the Hermitian dual of an [n, n - 2] code is
    # an [n, 2] code with multiplicities m on the 5 points of PG(1,4) and
    # n - sum(m) zero columns.  The code has d >= 2 when the dual has no
    # zero column, and d >= 3 when also no two of its columns are
    # dependent, every m_i <= 1; it is hull-1 when 1 or 4 of the m_i are
    # odd and, for dual dimension 2, two m_i are nonzero, every m_i <= n - 1
    # (the k = 2 lemma).  From n = 6 on no 0/1 vector reaches sum n, and
    # Singleton allows no d above 3
    for n in range(5, 2001):
        best = 3 if _k2_hull_one(n, 1) else 2 if _k2_hull_one(n, n - 1) else 1
        assert dh_closed_form(n, n - 2).d == best == 2, n


@pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 12, 31, 32])
def test_high_rate_witnesses(n):
    # k = n - 1: the dual of L nonzero symbols on one point, L = n for even
    # n and n - 1 with one zero column for odd n.  k = n - 2: the dual of
    # `even_length_check_matrix` for even n, and for odd n the even-length
    # k = n - 2 code of length n - 1, padded with one zero column
    even = n - n % 2
    row = np.zeros((1, n), dtype=np.uint8)
    row[0, :even] = 1
    code = LinearCode.from_generator(row).hermitian_dual()
    assert (code.k, hull_dim(code), code.min_distance()) == (n - 1, 1, 2 - n % 2), n
    if n % 2:
        short = LinearCode.from_generator(row[:, :-1]).hermitian_dual()
        code = LinearCode.from_generator(
            np.hstack([short.generator, np.zeros((n - 2, 1), dtype=np.uint8)]))
    else:
        check = even_length_check_matrix(n)
        code = LinearCode.from_generator(gf4.kernel(gf4.CONJ[check]))
    assert (code.k, hull_dim(code), code.min_distance()) == (n - 2, 1, 2), n


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

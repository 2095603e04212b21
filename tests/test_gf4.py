import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_row_planes, oracle_rref, planes_to_matrix
from hullforge import gf4

elements = st.integers(min_value=0, max_value=3)
small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(elements, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
).map(gf4.as_matrix)


def test_addition_table():
    # addition is XOR of the 2-bit codes
    assert gf4.OMEGA ^ 1 == gf4.OMEGA2  # W = w + 1
    assert gf4.OMEGA2 ^ gf4.OMEGA2 == 0  # characteristic 2
    assert 0 ^ gf4.OMEGA == gf4.OMEGA


def test_multiplication_table():
    assert gf4.MUL[gf4.OMEGA, gf4.OMEGA2] == 1  # w^3 = 1
    assert gf4.MUL[gf4.OMEGA, gf4.OMEGA] == gf4.OMEGA2
    assert gf4.MUL[0, gf4.OMEGA2] == 0


def test_conjugation():
    assert gf4.CONJ[gf4.OMEGA] == gf4.OMEGA2
    assert gf4.CONJ[1] == 1
    assert gf4.CONJ[0] == 0
    for a in range(4):
        assert gf4.CONJ[a] == gf4.MUL[a, a]
        assert gf4.CONJ[gf4.CONJ[a]] == a


@given(elements, elements)
def test_frobenius_is_automorphism(a, b):
    mul, conj = gf4.MUL, gf4.CONJ
    assert conj[mul[a, b]] == mul[conj[a], conj[b]]
    assert conj[a ^ b] == conj[a] ^ conj[b]


@given(elements, elements, elements)
def test_field_axioms(a, b, c):
    mul = gf4.MUL
    assert mul[a, b ^ c] == mul[a, b] ^ mul[a, c]
    assert mul[mul[a, b], c] == mul[a, mul[b, c]]
    assert a ^ a == 0


def test_as_matrix_accepts_integral_entries():
    expected = np.array([[1, 0, 3]], dtype=np.uint8)
    for rows in ([[1, 0, 3]], [1, 0, 3], np.array([[1, 0, 3]]),
                 np.array([[1.0, 0.0, 3.0]]), expected):
        m = gf4.as_matrix(rows)
        assert m.dtype == np.uint8 and np.array_equal(m, expected)
    assert gf4.as_matrix(expected) is expected
    assert np.array_equal(gf4.as_matrix(np.array([[True, False]])), [[1, 0]])
    for empty in ([], np.zeros(0, dtype=np.uint8)):
        assert gf4.as_matrix(empty).shape == (0, 0)


@pytest.mark.parametrize("rows", [
    [[-1, 1]], [[256, 1, 1]], [[4]], np.array([[256, 1, 1]]),
    np.array([[1.9, 1.0, 3.5]]), np.array([[np.nan, 1.0]]), [[2**70]],
    [["1", "0"]], np.ones((2, 2, 2), dtype=np.uint8),
])
def test_as_matrix_rejects_what_a_cast_would_change(rows):
    # a uint8 cast wraps 256 to 0, truncates 1.9 to 1 and flattens a 3-axis
    # array into one row; each is an error instead
    with pytest.raises(ValueError):
        gf4.as_matrix(rows)


def test_rref_identity():
    i3 = np.eye(3, dtype=np.uint8)
    r, pivots = gf4.rref(i3)
    assert np.array_equal(r, i3)
    assert pivots == [0, 1, 2]


def test_rref_scales_single_entry():
    r, pivots = gf4.rref(gf4.as_matrix([[gf4.OMEGA]]))
    assert r.tolist() == [[1]]
    assert pivots == [0]


def test_rref_duplicate_rows():
    r, pivots = gf4.rref(gf4.as_matrix([[1, 1], [1, 1]]))
    assert r.tolist() == [[1, 1], [0, 0]]
    assert pivots == [0]


def test_rank_examples():
    from hullforge.construct import simplex_matrix

    assert gf4.rank(simplex_matrix(2)) == 2
    assert gf4.rank(np.zeros((2, 2), dtype=np.uint8)) == 0
    # 3x3 matrix, zero diagonal and ones elsewhere: rows sum pairwise
    m = gf4.as_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert gf4.rank(m) == 2


def test_kernel_examples():
    assert gf4.kernel(np.eye(3, dtype=np.uint8)).shape == (0, 3)
    assert gf4.kernel(np.zeros((2, 3), dtype=np.uint8)).shape == (3, 3)
    k = gf4.kernel(gf4.as_matrix([[1, 1]]))
    assert k.shape == (1, 2)
    assert k[0, 0] == k[0, 1] != 0
    for shape in [(3, 0), (0, 0)]:
        ker = gf4.kernel(np.zeros(shape, dtype=np.uint8))
        assert ker.shape == (0, 0) and ker.dtype == np.uint8


@settings(max_examples=60)
@given(small_matrices)
def test_kernel_annihilates(m):
    ker = gf4.kernel(m)
    assert ker.shape[0] == m.shape[1] - gf4.rank(m)
    if ker.size:
        assert not gf4.matmul(m, ker.T).any()


@settings(max_examples=60)
@given(small_matrices)
def test_gram_is_hermitian_symmetric(m):
    gram = gf4.hermitian_gram(m)
    assert np.array_equal(gram, gf4.conj_transpose(gram))


@settings(max_examples=40)
@given(small_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(m, pyrandom):
    # permute rows and rescale by nonzero constants
    perm = list(range(m.shape[0]))
    pyrandom.shuffle(perm)
    scaled = np.array(
        [gf4.MUL[pyrandom.choice([1, 2, 3]), m[i]] for i in perm],
        dtype=np.uint8,
    )
    assert gf4.rank(scaled) == gf4.rank(m)


def test_gram_of_simplex_vanishes():
    from hullforge.construct import simplex_matrix

    assert not gf4.hermitian_gram(simplex_matrix(2)).any()


def test_gram_of_identity():
    i4 = np.eye(4, dtype=np.uint8)
    assert np.array_equal(gf4.hermitian_gram(i4), i4)


def test_gram_rank_independent_of_generator(rng):
    # Gram rank agrees between a generator and a random row-equivalent one
    from hullforge.code import LinearCode

    for _ in range(50):
        g = rng.integers(0, 4, size=(3, 7), dtype=np.uint8)
        if gf4.rank(g) < 3:
            continue
        # random invertible transform
        while True:
            t = rng.integers(0, 4, size=(3, 3), dtype=np.uint8)
            if gf4.rank(t) == 3:
                break
        g2 = gf4.matmul(t, g)
        assert gf4.rank(gf4.hermitian_gram(g)) == gf4.rank(gf4.hermitian_gram(g2))


def _rref_cases(rng):
    """Matrices for the packed elimination: degenerate shapes, zero
    matrices, dependent and sparse rows, and widths around word sizes."""
    for shape in ((0, 0), (0, 5), (3, 0), (1, 1), (4, 1), (1, 9)):
        yield np.zeros(shape, dtype=np.uint8)
    for cols in (1, 7, 8, 9, 63, 64, 65, 129):
        for rows in (1, 3, 8):
            yield np.zeros((rows, cols), dtype=np.uint8)
            yield rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)
    for _ in range(400):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 80))
        m = rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)
        m[rng.random(m.shape) < rng.random()] = 0
        if rows > 1 and rng.random() < 0.3:
            # a scalar multiple of another row
            m[-1] = gf4.MUL[int(rng.integers(1, 4)), m[0]]
        yield m


def test_rref_and_rank_match_oracle(rng):
    for m in _rref_cases(rng):
        before = m.copy()
        m.setflags(write=False)
        r, pivots = gf4.rref(m)
        expected, expected_pivots = oracle_rref(m)
        assert pivots == expected_pivots
        assert r.dtype == np.uint8 and r.shape == m.shape
        assert np.array_equal(r, expected)
        assert gf4.rank(m) == len(pivots)
        assert np.array_equal(m, before)


def test_eliminate_core_on_int_rows_matches_oracle(rng):
    # rows packed one entry at a time, not through the numpy front end
    for m in _rref_cases(rng):
        lo, hi = oracle_row_planes(m)
        pivots = gf4._eliminate(lo, hi)
        expected, expected_pivots = oracle_rref(m)
        assert pivots == expected_pivots
        # the rows are reduced in place
        assert np.array_equal(planes_to_matrix(lo, hi, m.shape[1]), expected)


def test_row_planes_front_end_matches_oracle(rng):
    for m in _rref_cases(rng):
        assert gf4._row_planes(m) == oracle_row_planes(m)


def test_packed_gram_matches_numpy_gram(rng):
    for _ in range(300):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 141))
        m = rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)
        m[rng.random(m.shape) < rng.random()] = 0
        glo, ghi = gf4._hermitian_gram_planes(*oracle_row_planes(m))
        assert np.array_equal(planes_to_matrix(glo, ghi, rows), gf4.hermitian_gram(m))

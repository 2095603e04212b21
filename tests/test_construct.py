import numpy as np
import pytest

from conftest import oracle_min_distance
from hullforge import gf4
from hullforge.code import LinearCode
from hullforge.construct import (
    MultiplicityVector,
    code_from_multiplicity,
    distance_two_code,
    even_length_check_matrix,
    extend_simplex,
    fixture,
    fixture_names,
    multiplicity_generator,
    simplex,
    simplex_length,
    simplex_matrix,
    verify_fixture,
)
from hullforge.exceptions import (
    DimensionTooSmallError,
    RankDeficientError,
    UnknownFixtureError,
)
from hullforge.hull import hull_dim


def test_simplex_lengths():
    assert [simplex_length(k) for k in (1, 2, 3, 4)] == [1, 5, 21, 85]


def test_simplex_matrix_k1_k2():
    assert simplex_matrix(1).tolist() == [[1]]
    with pytest.raises(ValueError):
        simplex_matrix(0)
    s2 = simplex_matrix(2)
    assert s2.tolist() == [
        [1, 0, 1, 1, 1],
        [0, 1, 1, gf4.OMEGA, gf4.OMEGA2],
    ]


def test_simplex_columns_cover_projective_classes():
    # every nonzero vector is proportional to exactly one simplex column
    for k in (2, 3):
        s = simplex_matrix(k)
        seen = set()
        for i in range(s.shape[1]):
            col = s[:, i]
            orbit = frozenset(
                tuple(gf4.MUL[a, col]) for a in (1, 2, 3)
            )
            assert orbit not in seen
            seen.add(orbit)
        assert len(seen) == simplex_length(k)


def test_simplex_code_parameters():
    for k in (1, 2, 3):
        c = simplex(k)
        assert (c.n, c.k) == (simplex_length(k), k)
        assert c.min_distance() == 4 ** (k - 1)
        # constant-weight: every nonzero codeword has weight 4^(k-1)
        wd = c.weight_distribution()
        assert wd[4 ** (k - 1)] == 4**k - 1


def test_multiplicity_vector_validation():
    with pytest.raises(ValueError):
        MultiplicityVector(2, (1, 1, 1))
    with pytest.raises(ValueError):
        MultiplicityVector(2, (1, -1, 0, 0, 0))
    mv = MultiplicityVector(2, (1, 2, 0, 0, 3))
    assert mv.n == 6


def test_multiplicity_generator_order():
    mv = MultiplicityVector(2, (2, 1, 0, 0, 1))
    g = multiplicity_generator(mv)
    s = simplex_matrix(2)
    expected = np.column_stack([s[:, 0], s[:, 0], s[:, 1], s[:, 4]])
    assert np.array_equal(g, expected)


def test_code_from_multiplicity_simplex():
    mv = MultiplicityVector(3, (1,) * 21)
    c = code_from_multiplicity(mv)
    assert c == simplex(3)


def test_code_from_multiplicity_rank_deficient():
    with pytest.raises(RankDeficientError):
        code_from_multiplicity(MultiplicityVector(2, (3, 0, 0, 0, 0)))
    with pytest.raises(RankDeficientError):
        multiplicity_generator(MultiplicityVector(2, (0,) * 5))


def test_code_from_multiplicity_distance_oracle():
    mv = MultiplicityVector(2, (2, 1, 1, 0, 1))
    c = code_from_multiplicity(mv)
    assert c.min_distance() == oracle_min_distance(multiplicity_generator(mv))


def test_extend_simplex_grows_distance_and_keeps_hull():
    for name in ("G_[4,3,2]", "G_[7,3,4]"):
        c = fixture(name).code()
        for s in (1, 2):
            ext = extend_simplex(c, s)
            assert ext.n == c.n + 21 * s
            assert ext.min_distance() == c.min_distance() + 16 * s
            assert hull_dim(ext) == 1


def test_extend_simplex_zero_blocks():
    c = fixture("G_[4,3,2]").code()
    assert extend_simplex(c, 0) == c
    with pytest.raises(ValueError):
        extend_simplex(c, -1)


def test_extend_simplex_needs_k2():
    c = LinearCode.from_generator(np.ones((1, 3), dtype=np.uint8))
    with pytest.raises(DimensionTooSmallError):
        extend_simplex(c, 1)


def test_strip_simplex_inverts_extension():
    # the padding blocks come first: deleting their columns gives c back
    c = fixture("G_[7,3,4]").code()
    ext = extend_simplex(c, 1)
    assert ext.puncture(range(simplex_length(3))) == c


def test_remove_scalar_pair():
    # columns 0 and 2 are proportional (omega * e1); they add
    # v conj(v)^T (1 + a conj(a)) = 0 to the Gram matrix, so deleting both
    # keeps the hull dimension
    g = gf4.as_matrix([[1, 0, gf4.OMEGA, 1], [0, 1, 0, 0]])
    c = LinearCode.from_generator(g)
    smaller = c.puncture({0, 2})
    assert smaller.n == 2
    assert hull_dim(smaller) == hull_dim(c)


def test_remove_scalar_pair_preserves_hull(rng):
    for _ in range(30):
        g = rng.integers(0, 4, size=(3, 6), dtype=np.uint8)
        g[:, 5] = gf4.MUL[int(rng.integers(1, 4)), g[:, 2]]
        if gf4.rank(g) < 3:
            continue
        c = LinearCode.from_generator(g)
        smaller = c.puncture({2, 5})
        if smaller.k < c.k:
            # deleting the pair lost rank; the hull comparison needs equal k
            continue
        assert hull_dim(smaller) == hull_dim(c)


def test_even_length_check_matrix():
    for n in (4, 6, 10, 20):
        h = even_length_check_matrix(n)
        assert h.shape == (2, n)
        code = LinearCode.from_generator(gf4.kernel(gf4.CONJ[h]))
        assert (code.n, code.k) == (n, n - 2)
        assert hull_dim(code) == 1
        if n <= 14:
            # n = 4 has no zero-padded coordinates, so the distance is 3
            assert code.min_distance() == (3 if n == 4 else 2)
    with pytest.raises(ValueError):
        even_length_check_matrix(5)


def test_distance_two_code():
    for n, k in ((8, 3), (12, 3), (10, 4)):
        c = distance_two_code(n, k)
        assert (c.n, c.k) == (n, n - k)
        assert hull_dim(c) == 1
        assert c.min_distance() == 2
    with pytest.raises(ValueError):
        distance_two_code(5, 2)


def test_fixture_names_complete():
    names = fixture_names()
    assert len(names) == 22
    assert "G_[9,4,5]" in names
    assert "G_[22,3,16]" in names


def test_fixture_unknown():
    with pytest.raises(UnknownFixtureError):
        fixture("G_[99,9,9]")


def test_all_fixtures_verify():
    for name in fixture_names():
        ok, results, claims = verify_fixture(fixture(name))
        assert ok, (name, results, claims)


def test_fixture_edit_stays_with_its_caller():
    # each call parses its file again: an edit to one returned matrix
    # reaches neither the next call nor its verification
    edited = fixture("G_[9,4,5]").matrix
    edited[0, 0] ^= 1
    fresh = fixture("G_[9,4,5]")
    assert fresh.matrix[0, 0] == edited[0, 0] ^ 1
    assert verify_fixture(fresh)[0]

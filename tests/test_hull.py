import numpy as np
import pytest

from conftest import ORACLE_MUL, oracle_codewords, random_code
from hullforge import gf4
from hullforge.code import LinearCode
from hullforge.construct import fixture, fixture_names, simplex
from hullforge.hull import (
    HullClass,
    hull_dim,
    hull_information_set,
    hull_report,
    is_even,
)


def oracle_hull_words(c):
    """Hull codewords by brute force: words of C that are Hermitian-orthogonal
    to every codeword of C (pure python, independent of the package linalg)."""
    words = oracle_codewords(c.generator)
    conj = [0, 1, 3, 2]

    def inner(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc ^= ORACLE_MUL[a][conj[b]]
        return acc

    return [u for u in words if all(inner(u, v) == 0 for v in words)]


def oracle_hull_dim(c):
    count = len(oracle_hull_words(c))
    dim = 0
    while 4**dim < count:
        dim += 1
    assert 4**dim == count
    return dim


def test_lcd_identity():
    c = LinearCode.from_generator(np.eye(3, dtype=np.uint8))
    rep = hull_report(c)
    assert rep.hull_dim == 0
    assert rep.classification is HullClass.LCD
    assert rep.hull_basis.shape == (0, 3)


def test_simplex_is_self_orthogonal():
    c = simplex(2)
    rep = hull_report(c)
    assert rep.hull_dim == c.k == 2
    assert rep.classification is HullClass.SELF_ORTHOGONAL


def test_fixture_hulls_are_one_dimensional():
    for name in fixture_names():
        c = fixture(name).code()
        rep = hull_report(c)
        assert rep.hull_dim == 1, name
        assert rep.classification is HullClass.PROPER, name


def test_hull_basis_lies_in_code_and_dual(rng):
    for _ in range(40):
        c = random_code(rng, 8, rng.integers(1, 6))
        rep = hull_report(c)
        assert rep.hull_basis.shape == (rep.hull_dim, c.n)
        if rep.hull_dim == 0:
            continue
        assert gf4.rank(rep.hull_basis) == rep.hull_dim
        dual = c.hermitian_dual()
        for row in rep.hull_basis:
            assert (c.codewords() == row).all(axis=1).any()
            assert dual.k == 0 or (dual.codewords() == row).all(axis=1).any()


def test_hull_dim_matches_bruteforce_oracle(rng):
    for _ in range(40):
        c = random_code(rng, 6, rng.integers(1, 5))
        assert hull_dim(c) == oracle_hull_dim(c)


def test_hull_dim_generator_independent(rng):
    c = fixture("G_[7,3,4]").code()
    for _ in range(20):
        while True:
            t = rng.integers(0, 4, size=(3, 3), dtype=np.uint8)
            if gf4.rank(t) == 3:
                break
        c2 = LinearCode.from_generator(gf4.matmul(t, c.generator))
        assert hull_dim(c2) == 1


def test_self_orthogonal_iff_even(rng):
    assert is_even(simplex(2))
    assert is_even(simplex(3))
    for _ in range(60):
        c = random_code(rng, 7, rng.integers(1, 5))
        rep = hull_report(c)
        assert is_even(c) == (rep.classification is HullClass.SELF_ORTHOGONAL)


def test_even_weights_examples():
    even = LinearCode.from_generator(gf4.as_matrix([[1, 1]]))
    assert is_even(even)
    odd = LinearCode.from_generator(gf4.as_matrix([[1, 1, 1]]))
    assert not is_even(odd)


def test_zero_code_is_even():
    assert is_even(LinearCode(np.zeros((0, 4), dtype=np.uint8)))


def test_hull_information_set():
    assert hull_information_set(LinearCode.from_generator(np.eye(2, dtype=np.uint8))) == []
    pivots = hull_information_set(fixture("G_[7,3,4]").code())
    assert len(pivots) == 1
    assert 0 <= pivots[0] < 7


def test_hull_of_shortening_bounds(rng):
    # puncturing/shortening on one coordinate moves the hull dim by at most 1
    for _ in range(40):
        c = random_code(rng, 8, rng.integers(2, 6))
        h = hull_dim(c)
        i = int(rng.integers(c.n))
        assert abs(hull_dim(c.puncture({i})) - h) <= 1
        assert abs(hull_dim(c.shorten({i})) - h) <= 1


def test_hull_of_shortening_empty_set():
    c = fixture("G_[4,3,2]").code()
    assert (hull_dim(c.puncture(set())), hull_dim(c.shorten(set()))) == (1, 1)


def test_hull_one_shorten_on_hull_pivot(rng):
    # on a hull information-set coordinate both operations drop the hull
    # dimension by exactly one
    for name in ("G_[7,3,4]", "G_[9,3,6]", "G_[9,4,5]"):
        c = fixture(name).code()
        piv = hull_information_set(c)[0]
        assert hull_dim(c.puncture({piv})) == 0
        assert hull_dim(c.shorten({piv})) == 0


def test_dual_has_same_hull(rng):
    # the Hermitian hull of C equals the hull of its dual
    for _ in range(40):
        c = random_code(rng, 7, rng.integers(1, 6))
        dual = c.hermitian_dual()
        if dual.k == 0:
            continue
        assert hull_dim(dual) == hull_dim(c)

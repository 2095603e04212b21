import numpy as np
import pytest

from conftest import oracle_min_distance, oracle_weights, random_code
from hullforge import gf4
from hullforge.bounds import griesmer_holds
from hullforge.code import LinearCode
from hullforge.construct import fixture, simplex
from hullforge.exceptions import (
    AllCoordinatesError,
    BudgetExceededError,
    ZeroMatrixError,
)


def repetition(n):
    return LinearCode.from_generator(np.ones((1, n), dtype=np.uint8))


def test_from_generator_drops_dependent_rows():
    g = gf4.as_matrix([[1, 0, 1], [1, 0, 1], [0, 1, 1]])
    c = LinearCode.from_generator(g)
    assert (c.n, c.k) == (3, 2)


def test_from_generator_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        LinearCode.from_generator(np.zeros((2, 3), dtype=np.uint8))


def test_from_generator_fixture():
    c = fixture("G_[4,3,2]").code()
    assert (c.n, c.k) == (4, 3)


def test_padded_identity():
    g = gf4.as_matrix([[1, 0, 0], [0, 1, 0]])
    c = LinearCode.from_generator(g)
    assert (c.n, c.k) == (3, 2)


def test_min_distance_simplex():
    assert simplex(2).min_distance() == 4
    assert simplex(3).min_distance() == 16


def test_min_distance_fixture():
    assert fixture("G_[9,3,6]").code().min_distance() == 6


def test_min_distance_repetition():
    for n in (1, 2, 5):
        assert repetition(n).min_distance() == n


def test_min_distance_budget():
    g = np.eye(15, dtype=np.uint8)
    with pytest.raises(BudgetExceededError):
        LinearCode.from_generator(g).min_distance()


def test_weight_distribution_simplex():
    wd = simplex(2).weight_distribution()
    assert wd[0] == 1 and wd[4] == 15
    assert sum(wd.counts) == 16


def test_weight_distribution_repetition():
    wd = repetition(2).weight_distribution()
    assert wd.counts == (1, 0, 3)


def test_weight_distribution_against_oracle():
    c = fixture("G_[4,3,2]").code()
    wd = c.weight_distribution()
    assert wd.total() == 64
    assert wd.min_nonzero_weight() == 2
    expected = oracle_weights(c.generator)
    got = [w for w, ct in enumerate(wd.counts) for _ in range(ct)]
    assert sorted(got) == expected


def test_weight_distribution_random_against_oracle(rng):
    for _ in range(20):
        c = random_code(rng, 7, 3)
        wd = c.weight_distribution()
        got = [w for w, ct in enumerate(wd.counts) for _ in range(ct)]
        assert sorted(got) == oracle_weights(c.generator)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
def test_weights_across_word_boundaries(rng, n):
    # packed weights against the pure-python oracle, one to three words
    for k in range(1, min(n, 5) + 1):
        c = random_code(rng, n, k)
        counts = c.weight_distribution().counts
        got = [w for w, ct in enumerate(counts) for _ in range(ct)]
        assert got == oracle_weights(c.generator)
    assert repetition(n).weight_distribution().counts == (1,) + (0,) * (n - 1) + (3,)


@pytest.mark.parametrize("n, k", [(13, 10), (12, 11)])
def test_weights_beyond_block_against_codewords(rng, n, k):
    # k > _BLOCK_K, so the weights come from several prefixes of the block
    c = random_code(rng, n, k)
    assert c.k == k
    expected = np.bincount(np.count_nonzero(c.codewords(), axis=1), minlength=n + 1)
    assert c.weight_distribution().counts == tuple(expected)
    # the same code with its columns spread over three 64-bit words
    wide = np.zeros((k, 150), dtype=np.uint8)
    wide[:, rng.choice(150, size=n, replace=False)] = c.generator
    spread = LinearCode.from_generator(wide).weight_distribution().counts
    assert spread == tuple(expected) + (0,) * (150 - n)


def test_hermitian_dual_dimensions():
    c = simplex(2)
    dual = c.hermitian_dual()
    assert (dual.n, dual.k) == (5, 3)


def test_hermitian_dual_orthogonality(rng):
    for _ in range(30):
        c = random_code(rng, 8, 3)
        dual = c.hermitian_dual()
        assert dual.k == c.n - c.k
        prod = gf4.matmul(c.generator, gf4.conj_transpose(dual.generator))
        assert not prod.any()


def test_hermitian_dual_involution(rng):
    for _ in range(50):
        c = random_code(rng, 10, rng.integers(1, 6))
        assert c.hermitian_dual().hermitian_dual() == c


def test_dual_of_even_repetition_contains_all_ones():
    c = repetition(4)
    dual = c.hermitian_dual()
    assert dual.contains(np.ones(4, dtype=np.uint8))


def test_dual_of_fixture_distance():
    dual = fixture("G_[4,3,2]").code().hermitian_dual()
    assert (dual.n, dual.k) == (4, 1)
    assert dual.min_distance() == oracle_min_distance(dual.generator)


def test_dual_of_full_space_is_zero_code():
    c = LinearCode.from_generator(np.eye(3, dtype=np.uint8))
    dual = c.hermitian_dual()
    assert (dual.n, dual.k) == (3, 0)


def test_puncture_simplex():
    c = simplex(3).puncture({0})
    assert (c.n, c.k) == (20, 3)


def test_puncture_zero_column():
    g = gf4.as_matrix([[1, 0, 0], [0, 1, 0]])
    c = LinearCode.from_generator(g)
    p = c.puncture({2})
    assert (p.n, p.k) == (2, 2)
    assert p.min_distance() == c.min_distance()


def test_puncture_repetition():
    p = repetition(2).puncture({1})
    assert (p.n, p.k, p.min_distance()) == (1, 1, 1)


def test_puncture_everything_fails():
    with pytest.raises(AllCoordinatesError):
        repetition(2).puncture({0, 1})


def test_shorten_repetition_gives_zero_code():
    s = repetition(3).shorten({0})
    assert s.k == 0 and s.n == 2


def test_shorten_fixture():
    s = fixture("G_[4,3,2]").code().shorten({3})
    assert (s.n, s.k) == (3, 2)
    # oracle: keep codewords vanishing on the coordinate, drop it
    full = fixture("G_[4,3,2]").code().codewords()
    kept = {tuple(w[:3]) for w in full if w[3] == 0}
    assert {tuple(w) for w in s.codewords()} == kept


def test_shorten_empty_set_is_identity():
    c = simplex(2)
    assert c.shorten(set()) == c


def test_shorten_subset_of_puncture(rng):
    for _ in range(30):
        c = random_code(rng, 8, 4)
        coords = set(rng.choice(8, size=2, replace=False).tolist())
        sh = c.shorten(coords)
        pu = c.puncture(coords)
        if sh.k == 0:
            continue
        shw = {tuple(w) for w in sh.codewords()}
        puw = {tuple(w) for w in pu.codewords()}
        assert shw <= puw


def test_dimension_sum_with_dual(rng):
    for _ in range(30):
        c = random_code(rng, 9, rng.integers(1, 7))
        assert c.k + c.hermitian_dual().k == c.n


def test_singleton_and_griesmer(rng):
    for _ in range(30):
        c = random_code(rng, 9, 4)
        d = c.min_distance()
        assert d <= c.n - c.k + 1
        assert griesmer_holds(c.n, c.k, d)


def test_weight_distribution_consistency(rng):
    for _ in range(20):
        c = random_code(rng, 8, 3)
        wd = c.weight_distribution()
        assert wd.total() == 4**c.k
        assert wd.min_nonzero_weight() == c.min_distance()

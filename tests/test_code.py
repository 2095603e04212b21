import numpy as np
import pytest

from conftest import (
    ORACLE_MUL,
    oracle_min_distance,
    oracle_row_planes,
    oracle_rref,
    oracle_weights,
    random_code,
    run_optimised,
)
from hullforge import gf4, witnesses
from hullforge.bounds import griesmer_holds, table5_cells
from hullforge.code import _BLOCK_K, LinearCode, _plane_weights, macwilliams
from hullforge.construct import fixture, fixture_names, simplex
from hullforge.exceptions import (
    AllCoordinatesError,
    BudgetExceededError,
    InvalidWeightsError,
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
    with pytest.raises(ZeroMatrixError):
        LinearCode(np.zeros((0, 3), dtype=np.uint8)).min_distance()


def test_from_generator_rejects_entries_outside_gf4():
    # a uint8 cast would read 256 as 0 and build the code of [[0, 1, 1]]
    with pytest.raises(ValueError, match="0..3"):
        LinearCode.from_generator(np.array([[256, 1, 1]]))


def test_init_leaves_callers_array_writable():
    g = np.eye(2, dtype=np.uint8)
    c = LinearCode(g)
    g[0, 1] = 1
    assert c.generator.tolist() == [[1, 0], [0, 1]]


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
    # k = 15 and n - k = 15: neither side can be enumerated
    g = np.hstack([np.eye(15, dtype=np.uint8)] * 2)
    with pytest.raises(BudgetExceededError):
        LinearCode.from_generator(g).min_distance()
    # k = 15 is beyond the cap, but the zero dual is not
    assert LinearCode.from_generator(np.eye(15, dtype=np.uint8)).min_distance() == 1
    with pytest.raises(BudgetExceededError):
        LinearCode.from_generator(np.eye(15, dtype=np.uint8)).codewords()


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
    # k > _BLOCK_K: the code itself is weighed through its smaller dual
    # (n - k < k), the wide copy below through several prefixes of the block
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
    assert (dual.codewords() == 1).all(axis=1).any()


def test_dual_of_fixture_distance():
    dual = fixture("G_[4,3,2]").code().hermitian_dual()
    assert (dual.n, dual.k) == (4, 1)
    assert dual.min_distance() == oracle_min_distance(dual.generator)


def test_dual_of_full_space_is_zero_code():
    c = LinearCode.from_generator(np.eye(3, dtype=np.uint8))
    dual = c.hermitian_dual()
    assert (dual.n, dual.k) == (3, 0)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_zero_code_weights(n):
    # k = 0 takes the general enumeration, which counts the zero word once
    wd = LinearCode(np.zeros((0, n), dtype=np.uint8)).weight_distribution()
    assert wd.counts == (1,) + (0,) * n


def test_puncture_simplex():
    c = simplex(3).puncture({0})
    assert (c.n, c.k) == (20, 3)


def test_puncture_zero_column():
    g = gf4.as_matrix([[1, 0, 0], [0, 1, 0]])
    c = LinearCode.from_generator(g)
    p = c.puncture({2})
    assert (p.n, p.k) == (2, 2)
    assert p.min_distance() == c.min_distance()


def test_puncture_to_zero_code():
    p = LinearCode.from_generator([[1, 0, 0]]).puncture({0})
    assert (p.n, p.k) == (2, 0)


def test_puncture_repetition():
    p = repetition(2).puncture({1})
    assert (p.n, p.k, p.min_distance()) == (1, 1, 1)


def test_puncture_everything_fails():
    with pytest.raises(AllCoordinatesError):
        repetition(2).puncture({0, 1})
    # coordinates outside 0..n-1
    with pytest.raises(ValueError):
        repetition(2).puncture({2})
    with pytest.raises(ValueError):
        repetition(2).shorten({-1})


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


def _dual_weights_by_syndrome(gen, max_w):
    """B_0..B_max_w of the Hermitian dual by dynamic programming over the
    coordinates: count the vectors y of each weight by their syndrome
    G conj(y)^T (2 bits per row, added by XOR); dual words have syndrome 0."""
    k, _ = gen.shape
    index = np.arange(4**k)
    counts = np.zeros((max_w + 1, 4**k), dtype=np.int64)
    counts[0, 0] = 1
    for column in gen.T:
        step = counts.copy()
        for c in (1, 2, 3):
            conj_c = ORACLE_MUL[c][c]  # conj(c) = c^2 in GF(4)
            shift = sum(ORACLE_MUL[conj_c][int(x)] << (2 * i)
                        for i, x in enumerate(column))
            step[1:] += counts[:-1, index ^ shift]
        counts = step
    return tuple(int(b) for b in counts[:, 0])


def test_macwilliams_matches_enumerated_dual():
    codes = [fixture(name).code() for name in fixture_names()]
    codes += [witnesses.witness(n, k) for n, k, _ in table5_cells()]
    assert len(codes) == 22 + 66
    for c in codes:
        dual = c.hermitian_dual()
        got = c.dual_weight_distribution().counts
        if dual.k > 12:
            # too many dual words to list ([24,21] for G_[24,3,17])
            assert got == _dual_weights_by_syndrome(c.generator, c.n), (c.n, c.k)
            continue
        enumerated = tuple(dual._count_weights())
        assert got == enumerated, (c.n, c.k)
        if c.n - dual.k < dual.k:
            # the smaller side is c: above one block (k > _BLOCK_K) a fresh
            # copy of the dual enumerates c and transforms back
            fresh = LinearCode(dual.generator)
            assert fresh.weight_distribution().counts == enumerated
    # the simplex [85,4,64] and its Hamming dual [85,81,3]
    hamming = simplex(4).dual_weight_distribution()
    assert hamming.counts[:4] == _dual_weights_by_syndrome(simplex(4).generator, 3)
    assert hamming.min_nonzero_weight() == 3
    # k = 81 exceeds the cap: the Hamming code is weighed through its
    # enumerated simplex dual
    assert simplex(4).hermitian_dual().weight_distribution() == hamming
    # a full-space code: the dual is the zero code
    full = LinearCode.from_generator(np.eye(3, dtype=np.uint8))
    assert full.dual_weight_distribution().counts == (1, 0, 0, 0)


# counts that are the weights of no code, one per check: 2 words for k = 1
# (B_0 = 1/2); 16 words for k = 2 whose transform has B_0 = 1 but the
# fractions B_1 = 1/4, B_2 = 1/2, B_3 = 9/4; (1 - z) for n = 1, k = 1 (a
# negative count); 8 zero words (B_0 = 2)
_NOT_WEIGHTS = [([1, 1, 0, 0, 0], 1), ([1, 1, 8, 6], 2), ([0, 4], 1), ([8, 0], 1)]


@pytest.mark.parametrize("counts, k", _NOT_WEIGHTS)
def test_macwilliams_rejects_non_distributions(counts, k):
    with pytest.raises(InvalidWeightsError):
        macwilliams(counts, k)


def test_macwilliams_guard_survives_optimisation():
    # `python -O` drops assert statements; the checks must still raise
    script = (
        "import sys\n"
        "from hullforge.code import macwilliams\n"
        "from hullforge.exceptions import InvalidWeightsError\n"
        f"for counts, k in {_NOT_WEIGHTS!r}:\n"
        "    try:\n"
        "        macwilliams(counts, k)\n"
        "    except InvalidWeightsError:\n"
        "        continue\n"
        "    sys.exit(f'accepted {counts}')\n"
        "print(sys.flags.optimize)\n"
    )
    done = run_optimised(script)
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 100, 128, 129, 140])
def test_plane_weights_match_oracle(rng, n):
    # rows packed one entry at a time; n > 64 spans several uint64 words
    for k in range(1, 5):
        g = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
        g[rng.random(g.shape) < rng.random()] = 0
        counts = _plane_weights(*oracle_row_planes(g), n)
        expected = np.bincount(oracle_weights(g), minlength=n + 1)
        assert counts.tolist() == expected.tolist()


def _direct_sum_rows(rng, n, rank, extra=()):
    """Rows on n columns spanning C1 + C2, two systematic codes of ranks
    rank // 2 and rank - rank // 2 on disjoint random column sets, mixed by
    a random invertible matrix; `extra` inserts dependent rows at the given
    positions ("zero", "repeat" or "sum").  Returns the rows and the
    message weight counts expected of them: the convolution of the two
    codes' counts from `codewords()`, times 4 per dependent row."""
    cols = rng.permutation(n)
    r1 = rank // 2
    n1 = r1 + (n - rank) // 2
    parts, expected = [], np.array([1])
    for r, span in ((r1, cols[:n1]), (rank - r1, cols[n1:])):
        g = np.zeros((r, n), dtype=np.uint8)
        g[:, span[:r]] = np.eye(r, dtype=np.uint8)
        g[:, span[r:]] = rng.integers(0, 4, size=(r, len(span) - r))
        parts.append(g)
        words = LinearCode.from_generator(g).codewords()
        expected = np.convolve(expected, np.bincount(
            np.count_nonzero(words, axis=1), minlength=n + 1))[: n + 1]
    while True:
        mix = rng.integers(0, 4, size=(rank, rank), dtype=np.uint8)
        if len(oracle_rref(mix)[1]) == rank:
            break
    rows = list(gf4.matmul(mix, np.vstack(parts)))
    for pos, kind in extra:
        if kind == "zero":
            row = np.zeros(n, dtype=np.uint8)
        elif kind == "repeat":
            row = rows[int(rng.integers(len(rows)))].copy()
        else:
            a, b = rng.choice(len(rows), size=2, replace=False)
            row = gf4.MUL[2][rows[a]] ^ rows[b]
        rows.insert(pos, row)
        expected = 4 * expected
    return np.array(rows), expected


@pytest.mark.parametrize("n", [11, 24, 31, 32, 33, 63, 64, 65, 129])
def test_plane_weights_beyond_block_match_direct_sums(rng, n):
    # k > _BLOCK_K: the first k - _BLOCK_K rows are prefixes, one visited
    # per scalar class; at n = 11 the rows beyond the 11th are dependent.
    # n <= 32 takes the narrow pass (uint32 words, paired histogram), 33
    # the uint64 one
    for k in range(10, 14):
        rank = min(k, n)
        extra = [(int(rng.integers(rank + i + 1)), "sum") for i in range(k - rank)]
        rows, expected = _direct_sum_rows(rng, n, rank, extra)
        counts = _plane_weights(*oracle_row_planes(rows), n)
        assert counts.tolist() == expected.tolist()
        assert counts.sum() == 4 ** k
        if rank == k:
            assert not (counts[1:] % 3).any()


@pytest.mark.parametrize("extra", [
    [(0, "zero")],                    # the leading prefix row is zero
    [(3, "zero"), (0, "repeat")],     # a zero row in the block
    [(1, "repeat"), (11, "zero")],    # a repeated prefix row, last row zero
    [(0, "sum"), (1, "sum"), (2, "zero")],
])
def test_plane_weights_with_dependent_rows(rng, extra):
    # rank < r: each codeword comes from 4^(r - rank) messages, and the
    # counts still sum to 4^r; n = 30 takes the narrow pass
    for n in (70, 30):
        rows, expected = _direct_sum_rows(rng, n, 12 - len(extra), extra)
        assert rows.shape == (12, n)
        counts = _plane_weights(*oracle_row_planes(rows), n)
        assert counts.tolist() == expected.tolist()
        assert counts.sum() == 4 ** 12


def _codeword_counts(code):
    """A_0..A_n from the uint8 list of all codewords (`_span`)."""
    return np.bincount(np.count_nonzero(code.codewords(), axis=1),
                       minlength=code.n + 1)


@pytest.mark.parametrize("n", [None, 32, 65, 129])
def test_plane_weights_at_block_boundary(rng, n):
    # k = _BLOCK_K - 1 and _BLOCK_K take one pass over a partial or full
    # block, _BLOCK_K + 1 and + 2 one or two prefix rows; n = None is k + 3
    for k in range(_BLOCK_K - 1, _BLOCK_K + 3):
        code = random_code(rng, n or k + 3, k)
        assert code.k == k
        counts = _plane_weights(*oracle_row_planes(code.generator), code.n)
        assert counts.tolist() == _codeword_counts(code).tolist()
    # a dependent prefix row: each codeword comes from 4 messages
    code = random_code(rng, n or _BLOCK_K + 4, _BLOCK_K)
    rows = np.vstack([gf4.MUL[2][code.generator[0]] ^ code.generator[-1],
                      code.generator])
    counts = _plane_weights(*oracle_row_planes(rows), code.n)
    assert counts.tolist() == (4 * _codeword_counts(code)).tolist()


def test_high_rate_code_enumerates_its_dual(rng, monkeypatch):
    # k > _BLOCK_K and n - k < k: one enumeration of the [n, n - k] dual,
    # transformed back, gives the same counts as listing the 4^k codewords
    calls = []
    count_weights = LinearCode._count_weights

    def counting(self):
        calls.append((self.n, self.k))
        return count_weights(self)

    monkeypatch.setattr(LinearCode, "_count_weights", counting)
    code = random_code(rng, 12, _BLOCK_K + 3)
    assert code.k == _BLOCK_K + 3
    counts = code.weight_distribution().counts
    assert calls == [(12, 12 - code.k)]
    assert counts == tuple(_codeword_counts(code))

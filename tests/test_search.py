from itertools import combinations

import numpy as np
import pytest

from hullforge import search
from hullforge.bounds import dh_closed_form, table5_lookup
from hullforge.code import LinearCode
from hullforge.construct import (
    MultiplicityVector,
    code_from_multiplicity,
    simplex_matrix,
)
from hullforge.exceptions import UnsupportedError
from hullforge.hull import hull_dim
from hullforge.search import (
    CounterexampleFound,
    NonexistenceCertificate,
    _enumerate_multiplicities,
    _verify_multiplicity_witness,
    certify_nonexistence,
    exhaustive_dh,
    multiplicity_bounds,
    random_search,
)


def test_multiplicity_bounds_k2():
    assert multiplicity_bounds(8, 2, 5) == (0, 3)
    assert multiplicity_bounds(5, 2, 4) == (0, 1)


def test_multiplicity_bounds_k3():
    # n = 21, d = 16: forced to the all-ones simplex vector
    assert multiplicity_bounds(21, 3, 16) == (1, 1)
    assert multiplicity_bounds(21, 3, 15) == (0, 2)


def test_exhaustive_k1():
    for n in range(2, 9):
        o = exhaustive_dh(n, 1)
        assert o.exhaustive
        assert o.best_d == dh_closed_form(n, 1).d
        assert o.witness is not None
        assert hull_dim(o.witness) == 1
        assert o.witness.min_distance() == o.best_d


def test_exhaustive_k2_matches_table():
    for n in range(3, 13):
        o = exhaustive_dh(n, 2)
        assert o.best_d == table5_lookup(n, 2)
        assert o.witness.min_distance() == o.best_d
        assert hull_dim(o.witness) == 1


def test_exhaustive_k3_matches_table():
    for n in range(4, 13):
        o = exhaustive_dh(n, 3)
        assert o.best_d == table5_lookup(n, 3)
        assert o.witness.min_distance() == o.best_d
        assert hull_dim(o.witness) == 1


def test_exhaustive_long_k1_runs_without_deep_recursion():
    # each length builds on the one before; n = 1100 used to recurse 1100 deep
    assert exhaustive_dh(1100, 1).best_d == dh_closed_form(1100, 1).d


# multiplicity vectors the k = 3 DFS examines, as printed by `search n 3`;
# any change to its visit order or pruning moves these counts
K3_EXPLORED = dict(zip(range(4, 23), (
    1324, 18652, 55903, 55904, 55929, 55979, 252285, 389954, 389957, 399835,
    408560, 435860, 444594, 444595, 444598, 444599, 444620, 444623, 444627,
)))


def test_exhaustive_k3_traversal_counts():
    assert {n: exhaustive_dh(n, 3).explored for n in K3_EXPLORED} == K3_EXPLORED


@pytest.mark.parametrize("n, d, examined", [
    (16, 12, 8733), (10, 7, 196306), (11, 8, 137666), (15, 11, 27300),
    (6, 4, 37240), (5, 4, 0), (20, 15, 21),
])
def test_certificate_traversal_counts(n, d, examined):
    cert = certify_nonexistence(n, 3, d)
    assert isinstance(cert, NonexistenceCertificate)
    assert cert.vectors_examined == examined


def test_weight_lanes_do_not_overflow_at_large_n():
    # raising every multiplicity by an even s keeps the Gram parity and adds
    # 16s to every weight, so the DFS at (21s + 16, 3, 16s + 12) is the one
    # at (16, 3, 12) shifted by s
    s = 4096
    shifted = _enumerate_multiplicities(21 * s + 16, 3, 16 * s + 12)
    assert shifted == _enumerate_multiplicities(16, 3, 12) == (None, 8733)
    # far below the best distance every prune sum is about 16n, which a
    # lane width fixed for small n carries into the next lane
    m, examined = _enumerate_multiplicities(2500, 3, 1)
    assert examined == 242
    _verify_multiplicity_witness(3, m, 1)


@pytest.mark.parametrize("n, d", [(16, 12), (15, 11), (20, 15), (14, 10)])
def test_zero_one_multiplicities_agree_with_brute_force(n, d):
    # where every multiplicity is 0 or 1, try every support of size n, with
    # weights read off the simplex codewords instead of the DFS tables;
    # (14, 10) has a witness, the other three are certificates
    assert multiplicity_bounds(n, 3, d) == (0, 1)
    words = LinearCode(simplex_matrix(3)).codewords()
    support = (words[words.any(axis=1)] != 0).astype(np.int64)
    chosen = np.array(list(combinations(range(support.shape[1]), n)))
    vectors = np.zeros((len(chosen), support.shape[1]), dtype=np.int64)
    np.put_along_axis(vectors, chosen, 1, axis=1)
    heavy = vectors[(vectors @ support.T).min(axis=1) >= d]
    exists = any(
        hull_dim(code_from_multiplicity(MultiplicityVector(3, tuple(m)))) == 1
        for m in heavy
    )
    witness, _ = _enumerate_multiplicities(n, 3, d)
    assert (witness is not None) == exists


def test_exhaustive_rejects_large_k():
    with pytest.raises(UnsupportedError):
        exhaustive_dh(10, 4)


def test_certify_nonexistence():
    cert = certify_nonexistence(8, 2, 6)
    assert isinstance(cert, NonexistenceCertificate)
    assert cert.vectors_examined >= 0
    # d = 5 is attainable at n = 8, so the same call must find a witness
    found = certify_nonexistence(8, 2, 5)
    assert isinstance(found, CounterexampleFound)
    assert found.witness.n == 8
    assert found.witness.min_distance() >= 5
    assert hull_dim(found.witness) == 1


def test_certify_nonexistence_zero_column_lift():
    # the best [5, 2] hull-1 distance is 3, realized with a zero column from
    # the [4, 2, 3] witness; certification must find it through the recursion
    found = certify_nonexistence(5, 2, 3)
    assert isinstance(found, CounterexampleFound)
    assert found.witness.n == 5


def test_certify_rejects_wrong_k():
    with pytest.raises(UnsupportedError):
        certify_nonexistence(8, 1, 2)


def test_verify_multiplicity_witness_rejects_wrong_hull():
    # the all-ones [5, 2] vector is the simplex code: self-orthogonal, hull 2
    with pytest.raises(AssertionError, match="hull dimension 2"):
        _verify_multiplicity_witness(2, (1, 1, 1, 1, 1), 1)


def test_verify_multiplicity_witness_rejects_overclaimed_distance():
    m, _ = _enumerate_multiplicities(8, 2, 5)
    _, actual = _verify_multiplicity_witness(2, m, 5)
    assert actual == 5
    with pytest.raises(AssertionError, match="distance 5 < 6"):
        _verify_multiplicity_witness(2, m, 6)


def test_random_search_rejects_forged_chunk_distance(monkeypatch):
    real = search._search_chunk

    def forged(*args):
        (d, tie), code = real(*args)
        return (d + 1, tie), code

    monkeypatch.setattr(search, "_search_chunk", forged)
    with pytest.raises(AssertionError, match="chunk reported"):
        random_search(8, 4, 1, seed=0, budget=64)


def test_random_search_finds_known_cell():
    o = random_search(8, 4, 4, seed=7, budget=4096)
    assert not o.exhaustive
    assert o.witness is not None
    assert o.witness.min_distance() >= 4
    assert hull_dim(o.witness) == 1


def test_random_search_reproducible_across_chunks():
    # budget 3072 spans three chunks, each with its own RNG stream
    a = random_search(9, 4, 1, seed=3, budget=3072)
    b = random_search(9, 4, 1, seed=3, budget=3072)
    assert a.best_d == b.best_d
    assert (a.witness is None) == (b.witness is None)
    if a.witness is not None:
        assert np.array_equal(a.witness.generator, b.witness.generator)


def test_random_search_seed_changes_stream():
    a = random_search(9, 4, 1, seed=1, budget=2048)
    b = random_search(9, 4, 1, seed=2, budget=2048)
    # outcomes are valid regardless; different seeds explore different codes
    for o in (a, b):
        if o.witness is not None:
            assert hull_dim(o.witness) == 1


def test_random_search_unreachable_target():
    # Singleton kills d = 7 at [8, 4]; the search must come back empty-handed
    o = random_search(8, 4, 7, seed=0, budget=2048)
    assert o.witness is None
    assert o.best_d <= 5


def test_witnesses_verified_against_full_enumeration():
    # spot-check that accepted multiplicity witnesses satisfy their claims
    for n, k in ((7, 2), (10, 3)):
        o = exhaustive_dh(n, k)
        code = o.witness
        assert code.n == n and code.k == k
        assert code.min_distance() == o.best_d
        assert hull_dim(code) == 1

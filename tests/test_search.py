import gc
import hashlib
import random
from collections import Counter
from functools import reduce
import tracemalloc
from itertools import combinations, product
from operator import xor

import numpy as np
import pytest

from conftest import (
    exhaustive_column,
    oracle_enumerate_multiplicities,
    oracle_hull_lift,
    oracle_random_search,
    oracle_row_planes,
    packed_gram_rank,
    run_optimised,
    unpacked_gram,
)
from hullforge import gf4, hull, search
from hullforge.bounds import (
    _DEFICITS,
    dh_closed_form,
    griesmer_max_d,
    k3_value,
    sphere_packing_max_d,
    table5_lookup,
)
from hullforge.code import LinearCode
from hullforge.construct import (
    MultiplicityVector,
    code_from_multiplicity,
    simplex_matrix,
)
from hullforge.exceptions import UnsupportedError
from hullforge.hull import hull_dim, hull_information_set
from hullforge.search import (
    CounterexampleFound,
    NonexistenceCertificate,
    SearchOutcome,
    _enumerate_multiplicities,
    _verified,
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
    column = exhaustive_column(8, 1)
    for n in range(2, 9):
        o = column[n]
        assert o.exhaustive
        assert o.best_d == dh_closed_form(n, 1).d
        assert o.witness is not None
        assert hull_dim(o.witness) == 1
        assert o.witness.min_distance() == o.best_d


def test_exhaustive_k2_matches_table():
    column = exhaustive_column(12, 2)
    for n in range(3, 13):
        o = column[n]
        assert o.best_d == table5_lookup(n, 2)
        assert o.witness.min_distance() == o.best_d
        assert hull_dim(o.witness) == 1


def test_exhaustive_k3_matches_table():
    column = exhaustive_column(12, 3)
    for n in range(4, 13):
        o = column[n]
        assert o.best_d == table5_lookup(n, 3)
        assert o.witness.min_distance() == o.best_d
        assert hull_dim(o.witness) == 1


def test_exhaustive_long_k1_runs_without_deep_recursion():
    # each length builds on the one before; n = 1100 used to recurse 1100 deep
    assert exhaustive_dh(1100, 1).best_d == dh_closed_form(1100, 1).d


# multiplicity vectors the k = 3 DFS examines, as printed by `search n 3`;
# any change to its visit order or pruning moves these counts
K3_EXPLORED = dict(zip(range(4, 26), (
    1324, 18652, 55903, 55904, 55929, 55979, 252285, 389954, 389957, 399835,
    408560, 435860, 444594, 444595, 444598, 444599, 444620, 444623, 444627,
    444627, 444631, 444637,
)))


def test_exhaustive_k3_traversal_counts():
    column = exhaustive_column(25, 3)
    assert {n: column[n].explored for n in K3_EXPLORED} == K3_EXPLORED
    # past the n = 22 of the acceptance criteria the column still meets the
    # closed form in `bounds`
    for n in (23, 24, 25):
        assert column[n].best_d == k3_value(n).d


@pytest.mark.parametrize("n, d, examined", [
    (16, 12, 8733), (10, 7, 196306), (11, 8, 137666), (15, 11, 27300),
    (6, 4, 37240), (5, 4, 0), (20, 15, 21), (32, 24, 3946889),
])
def test_certificate_traversal_counts(n, d, examined):
    cert = certify_nonexistence(n, 3, d)
    assert isinstance(cert, NonexistenceCertificate)
    assert cert.vectors_examined == examined


def test_exhaustive_k3_column_to_46():
    # the repo's own search re-derives every k = 3 value of `bounds` to
    # n = 46, n = 26 among them, whose value `bounds` takes from an outside
    # classification; the cumulative counts show any change in pruning
    column = exhaustive_column(46, 3)
    assert {n: column[n].best_d for n in range(4, 47)} == \
        {n: k3_value(n).d for n in range(4, 47)}
    assert {n: column[n].explored for n in (30, 35, 46)} == \
        {30: 269018917, 35: 283840794, 46: 283933551}


@pytest.mark.parametrize("n, d, examined", [
    (26, 19, 174607146), (27, 20, 93966904), (31, 23, 10639286),
])
def test_long_walk_counts(n, d, examined):
    # walks long enough to restart on the large tables, with no witness
    assert _enumerate_multiplicities(n, 3, d) == (None, examined)


def test_weight_lanes_do_not_overflow_at_large_n():
    # raising every multiplicity by an even s keeps the Gram parity and adds
    # 16s to every weight, so the DFS at (21s + 16, 3, 16s + 12) is the one
    # at (16, 3, 12) shifted by s
    assert _enumerate_multiplicities(16, 3, 12) == (None, 8733)
    # from s of about 2^50 on, a float ceiling in the column bound gave the
    # upper end s, or below s, and so 0 vectors examined
    for s in (4096, 2**50 + 2, 2**54 + 2):
        n, d = 21 * s + 16, 16 * s + 12
        assert multiplicity_bounds(n, 3, d) == (s, s + 1)
        assert _enumerate_multiplicities(n, 3, d) == (None, 8733)
    # far below the best distance every prune sum is about 16n, which a
    # lane width fixed for small n carries into the next lane
    m, examined = _enumerate_multiplicities(2500, 3, 1)
    assert examined == 242
    _verified(code_from_multiplicity(MultiplicityVector(3, m)), 1, exact=False)


@pytest.mark.parametrize("s", [4096, 2**50 + 2, 2**53 + 2, 2**54 + 2])
def test_value_order_shifts_exactly_at_large_n(s):
    # the walk at (21s + 16, 3, 16s + 11) is the one at s = 0 shifted by s,
    # so it tries the shifted values in the same order and meets the same
    # witness first.  A float running mean stops telling neighbouring
    # values apart from s of about 2^50, which moves the witness and count
    n, d = 21 * s + 16, 16 * s + 11
    base = (1,) * 11 + (0, 1) * 5
    want = (tuple(s + v for v in base), 1)
    assert _enumerate_multiplicities(n, 3, d) == want
    assert oracle_enumerate_multiplicities(n, 3, d) == want


def _class_incidence(k):
    # Z[x, i] = 1 iff the x-th nonzero simplex codeword is nonzero at column
    # i, read off the codewords instead of the DFS tables (each projective
    # class appears three times, which leaves every minimum unchanged)
    words = LinearCode(simplex_matrix(k)).codewords()
    return (words[words.any(axis=1)] != 0).astype(np.int64)


def _passes_deepest_prune(vectors, support, upper, d):
    # the prune before the last two columns: the weights through column
    # last - 2, with both remaining columns at the upper bound, reach d in
    # every class; the DFS counts a vector exactly when it passes this one
    deep = vectors[:, :-2] @ support[:, :-2].T + upper * support[:, -2:].sum(axis=1)
    return deep.min(axis=1) >= d


def _hull_one_exists(k, vectors):
    return any(
        hull_dim(code_from_multiplicity(MultiplicityVector(k, tuple(m)))) == 1
        for m in vectors
    )


@pytest.mark.parametrize("n, d", [(16, 12), (15, 11), (20, 15), (14, 10)])
def test_zero_one_multiplicities_agree_with_brute_force(n, d):
    # where every multiplicity is 0 or 1, try every support of size n;
    # (14, 10) has a witness, the other three are certificates, which
    # examine exactly the supports that pass the deepest prune
    assert multiplicity_bounds(n, 3, d) == (0, 1)
    support = _class_incidence(3)
    chosen = np.array(list(combinations(range(support.shape[1]), n)))
    vectors = np.zeros((len(chosen), support.shape[1]), dtype=np.int64)
    np.put_along_axis(vectors, chosen, 1, axis=1)
    heavy = vectors[(vectors @ support.T).min(axis=1) >= d]
    exists = _hull_one_exists(3, heavy)
    witness, examined = _enumerate_multiplicities(n, 3, d)
    assert (witness is not None) == exists
    if not exists:
        passed = _passes_deepest_prune(vectors, support, 1, d)
        assert examined == np.count_nonzero(passed)


@pytest.mark.parametrize("n", range(2, 13))
def test_k2_multiplicities_agree_with_brute_force(n):
    # every vector of the whole box [lower, upper]^5 that sums to n, for
    # every d: a witness exists iff some heavy vector is hull-1, and the
    # vectors examined are those that pass the deepest prune, all of them
    # when there is no witness
    support = _class_incidence(2)
    for d in range(1, n + 1):
        lower, upper = multiplicity_bounds(n, 2, d)
        box = [m for m in product(range(lower, upper + 1), repeat=5)
               if sum(m) == n]
        vectors = np.array(box, dtype=np.int64).reshape(-1, 5)
        passed = np.count_nonzero(_passes_deepest_prune(vectors, support, upper, d))
        heavy = vectors[(vectors @ support.T).min(axis=1) >= d]
        exists = _hull_one_exists(2, heavy)
        witness, examined = _enumerate_multiplicities(n, 2, d)
        assert (witness is not None) == exists, d
        if exists:
            assert 1 <= examined <= passed, d
            assert list(witness) in heavy.tolist(), d
        else:
            assert examined == passed, d


# (n, k, d): k = 1..3 at n <= 23 around the Griesmer bound, then a length
# of two full simplex copies, a d above the bound, a d far below it, which
# takes 32-bit lanes and the narrowest tables (span 2), and longer walks
# whose class lookups are the shared all-ones entry (k = 2) or also a band
# built between a class's least and largest row sum (k = 3)
ORACLE_GRID = [
    (n, k, d)
    for k in (1, 2, 3)
    for n in range(k, 24)
    for d in range(max(1, griesmer_max_d(n, k) - 2), griesmer_max_d(n, k) + 2)
] + [(42, 3, 32), (26, 3, 20), (2500, 3, 1), (60, 2, 40), (100, 2, 70),
     (30, 3, 20), (40, 3, 28)]


def test_table_walk_matches_recursive_oracle():
    # same witness and same count of vectors examined as the recursive DFS
    # that walks every level in Python
    for n, k, d in ORACLE_GRID:
        assert _enumerate_multiplicities(n, k, d) == \
            oracle_enumerate_multiplicities(n, k, d), (n, k, d)


def test_walk_frees_its_tables(monkeypatch):
    # the settled-subtree tables must not outlive the call, not even when
    # the cyclic collector never runs, nor when the walk restarts
    search._geometry(3)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n, d in ((10, 7), (11, 8), (15, 11), (2500, 1)):
            _enumerate_multiplicities(n, 3, d)
        # multiplicities 0..1 take 12 columns in 4096 rows and 15 in 59049,
        # so with a settle limit of 0 this walk restarts on 15
        assert multiplicity_bounds(15, 3, 11) == (0, 1)
        monkeypatch.setattr(search, "_SETTLE_LIMIT", 0)
        _enumerate_multiplicities(15, 3, 11)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert retained < 256 * 1024


def test_shared_store_matches_recursive_oracle():
    # a table and its need-keyed lookups serve every walk with the same
    # (k, lower, upper, bits), whatever its n and d: walked in a shuffled
    # order through one store per k, so that walks of other lengths and
    # distances fill the tables first, every case still gives the oracle's
    # witness and count
    grid = list(ORACLE_GRID)
    random.Random(2201).shuffle(grid)
    stores = {k: {} for k in (1, 2, 3)}
    for n, k, d in grid:
        assert _enumerate_multiplicities(n, k, d, stores[k]) == \
            oracle_enumerate_multiplicities(n, k, d), (n, k, d)


def test_restarted_walks_match_recursive_oracle(monkeypatch):
    # with a settle limit of 0 every walk whose span can grow restarts on
    # the large tables at its first settle; alone, and through one store
    # per k in the shuffled order of the shared-store test, every case
    # still gives the oracle's witness and count
    monkeypatch.setattr(search, "_SETTLE_LIMIT", 0)
    grid = list(ORACLE_GRID)
    random.Random(2201).shuffle(grid)
    stores = {k: {} for k in (1, 2, 3)}
    for n, k, d in grid:
        expected = oracle_enumerate_multiplicities(n, k, d)
        assert _enumerate_multiplicities(n, k, d) == expected, (n, k, d)
        assert _enumerate_multiplicities(n, k, d, stores[k]) == expected, (n, k, d)
    # the tables of both spans were built: (k, lower, upper, bits, span)
    spans = Counter(key[:4] for store in stores.values() for key in store if len(key) == 5)
    assert max(spans.values()) == 2


def test_column_store_is_freed():
    # an exhaustive column shares one store across its walks, and each walk
    # of a certificate makes its own; none may outlive the call, not even
    # when the cyclic collector never runs.  The geometry with its Gram
    # table and its 16-bit lane columns is cached for the process, so it is
    # built first
    search._geometry(3).columns(16)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exhaustive_dh(22, 3)
        certify_nonexistence(16, 3, 12)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert retained < 256 * 1024


def test_column_outcomes_link_the_shorter_lengths():
    # one call yields its whole column: `shorter` runs through the outcomes
    # at n - 1, ..., k and ends there.  A second call solves the column
    # again: equal outcomes, none of them shared with the first
    first, second = exhaustive_column(12, 3), exhaustive_column(12, 3)
    assert sorted(first) == sorted(second) == list(range(3, 13))
    assert all(first[n] == second[n] and first[n] is not second[n] for n in first)


@pytest.mark.parametrize("n, k", [(60, 2), (25, 3)])
def test_column_drops_only_tables_it_never_reads(monkeypatch, n, k):
    # exhaustive_dh drops a store key once the Griesmer bound puts its upper
    # bound below that of every later walk; no later walk of the column may
    # build a dropped key again
    dropped, rebuilt = set(), set()
    drop, walk = search._drop_tables, search._enumerate_multiplicities

    def dropping(store, least_upper):
        before = set(store)
        drop(store, least_upper)
        dropped.update(before - set(store))

    def walking(n, k, d, store=None):
        before = set(store)
        try:
            return walk(n, k, d, store)
        finally:
            rebuilt.update((set(store) - before) & dropped)

    monkeypatch.setattr(search, "_drop_tables", dropping)
    monkeypatch.setattr(search, "_enumerate_multiplicities", walking)
    exhaustive_dh(n, k)
    assert dropped and not rebuilt


@pytest.mark.parametrize("n, k", [(60, 2), (25, 3)])
def test_column_store_holds_only_bound_keys(monkeypatch, n, k):
    # the store holds memos of a walk's bounds alone: value orders under
    # (k, lower, upper) and tables under (k, lower, upper, bits, span);
    # the Gram ranks, a constant of k, are the geometry's
    keys = set()
    walk = search._enumerate_multiplicities

    def walking(n, k, d, store=None):
        try:
            return walk(n, k, d, store)
        finally:
            keys.update(store)

    monkeypatch.setattr(search, "_enumerate_multiplicities", walking)
    exhaustive_dh(n, k)
    assert keys
    for key in keys:
        assert len(key) in (3, 5) and key[0] == k, key
        assert all(type(part) is int for part in key), key
        assert len(key) == 3 or key[3] in search._LANE_CODES, key


def test_walk_rejects_lengths_past_64_bit_lanes():
    # the weight lanes are numpy integers of at most 64 bits
    with pytest.raises(UnsupportedError, match="64-bit"):
        _enumerate_multiplicities(2**62, 3, 2**62 - 2**60)


@pytest.mark.parametrize("k, first", [(2, 1_317_624_576_693_539_402),
                                      (3, 401_016_175_515_425_036)])
def test_column_rejects_lengths_past_64_bit_lanes_before_walking(k, first):
    # a walk's lane width follows from its length alone, so a column whose
    # last length needs lanes past 64 bits is refused before its first walk;
    # `first` is the first such length, where length * (columns + 2) reaches
    # 2^63
    columns = search._geometry(k).length
    assert search._lane_bits(first - 1, columns) == 64
    with pytest.raises(UnsupportedError, match="64-bit"):
        search._lane_bits(first, columns)
    with pytest.raises(UnsupportedError, match=f"n={first} is too large"):
        exhaustive_dh(first, k)


def test_shared_tables_refuse_writes():
    # the GF(4) tables and the cached geometry are shared by every caller
    geo = search._geometry(3)
    for table in (gf4.MUL, gf4.CONJ, geo.incidence, geo.suffix):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1


@pytest.mark.parametrize("k", [2, 3])
def test_gram_rank_matches_numpy_gram(rng, k):
    # the DFS XORs the packed Gram blocks of the odd-multiplicity columns;
    # its rank must be the rank of G conj(G)^T for the repeated-column G
    geo = search._geometry(k)
    s = simplex_matrix(k)
    for _ in range(200):
        m = rng.integers(0, 4, size=geo.length)
        packed = 0
        for i in np.flatnonzero(m % 2):
            packed ^= geo.gram_bits[i]
        g = np.repeat(s, m, axis=1)
        assert packed_gram_rank(packed, k) == gf4.rank(gf4.hermitian_gram(g))


@pytest.mark.parametrize("k, meets", [(2, 4), (3, 16)])
def test_geometry_facts_of_the_shift_argument(k, meets):
    # every message class is nonzero on the same number of columns, so
    # adding 1 to every multiplicity adds the same weight to each class;
    # the rank-one Gram blocks XOR to 0, so it leaves the Gram matrix alone
    geo = search._geometry(k)
    assert (geo.incidence.sum(axis=1) == meets).all()
    packed = 0
    for block in geo.gram_bits:
        packed ^= block
    assert packed == 0


def _xor(blocks):
    return reduce(xor, blocks, 0)


def _gram_span(geo):
    """Every XOR of the geometry's Gram blocks: the packed Grams a walk can
    reach."""
    span = {0}
    for block in geo.gram_bits:
        span |= {gram ^ block for gram in span}
    return span


@pytest.mark.parametrize("k, hull_one", [(1, 1), (2, 5), (3, 210)])
def test_gram_blocks_span_every_hermitian_gram(k, hull_one):
    # the XOR span of the blocks is every Hermitian k x k Gram, 2^(k^2) of
    # them, and the geometry's bitmap marks exactly those of rank k - 1
    geo = search._geometry(k)
    span = _gram_span(geo)
    assert len(span) == 2 ** (k * k)
    hits = {gram for gram in span if geo.hull_one[gram >> 3] >> (gram & 7) & 1}
    assert hits == {gram for gram in span if packed_gram_rank(gram, k) == k - 1}
    assert len(hits) == hull_one


@pytest.mark.parametrize("k", [2, 3])
def test_gram_ranks_of_points_and_pairs(k):
    # one point's Gram block has rank 1, any two distinct points' rank 2
    geo = search._geometry(k)
    for size in (1, 2):
        for group in combinations(range(geo.length), size):
            assert packed_gram_rank(_xor(geo.gram_bits[i] for i in group), k) == size


def test_gram_parity_facts_of_the_plane():
    # the Gram blocks of PG(2, 4): each line's and each hyperoval's XOR to
    # 0, a collinear triple has rank 2 and any other triple rank 3
    geo = search._geometry(3)
    points = range(geo.length)
    lines = [frozenset(np.flatnonzero(row == 0)) for row in geo.incidence]
    assert len(set(lines)) == 21 and {len(line) for line in lines} == {5}
    for line in lines:
        assert _xor(geo.gram_bits[i] for i in line) == 0
    hyperovals = [six for six in combinations(points, 6)
                  if all(len(line & set(six)) <= 2 for line in lines)]
    assert len(hyperovals) == 168
    for six in hyperovals:
        assert _xor(geo.gram_bits[i] for i in six) == 0
    ranks = Counter(
        (any(set(triple) <= line for line in lines),
         packed_gram_rank(_xor(geo.gram_bits[i] for i in triple), 3))
        for triple in combinations(points, 3))
    assert ranks == {(True, 2): 210, (False, 3): 1120}


# t -> (a_t, b_t): at n = 21s + t and d = griesmer_max_d(n, 3), the column
# bounds are [max(0, s + a_t), s + b_t], for the k = 3 deficit residues t
_K3_SHIFTED_BOUNDS = {0: (0, 0), 5: (-3, 1), 6: (-2, 1), 10: (-2, 1),
                      11: (-1, 1), 15: (-1, 1), 16: (0, 1), 20: (0, 1)}


@pytest.mark.parametrize("t", sorted(_DEFICITS[3][1]))
def test_k3_deficit_bounds_move_by_one_per_period(t):
    # one certificate at Griesmer d per deficit residue settles every
    # later s: its column bounds shift by s, and the length n - 1 is
    # never walked, since the Griesmer bound there is already below d
    a, b = _K3_SHIFTED_BOUNDS[t]
    for s in [*range(61), 2**50 + 2]:
        n = 21 * s + t
        if n < 4:
            continue
        d = griesmer_max_d(n, 3)
        assert multiplicity_bounds(n, 3, d) == (max(0, s + a), s + b), s
        assert griesmer_max_d(n - 1, 3) < d, s


def test_exhaustive_rejects_length_below_k():
    with pytest.raises(ValueError, match="n >= k"):
        exhaustive_dh(2, 3)


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


@pytest.mark.parametrize("d", [0, -5, -1000, -100000])
def test_certification_rejects_distance_below_one(d):
    # a d < 1 overfilled the DFS weight lanes, which then carried into each
    # other: d = -100000 came back as a nonexistence certificate
    with pytest.raises(ValueError):
        certify_nonexistence(16, 3, d)
    with pytest.raises(ValueError):
        _enumerate_multiplicities(16, 3, d)


def test_certification_guard_survives_optimisation():
    # `python -O` drops assert statements; the check must still raise
    script = (
        "import sys\n"
        "from hullforge.search import certify_nonexistence\n"
        "try:\n"
        "    certify_nonexistence(16, 3, -5)\n"
        "except ValueError:\n"
        "    print(sys.flags.optimize)\n"
    )
    done = run_optimised(script)
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr


def test_certify_nonexistence_zero_column_lift():
    # the best [5, 2] hull-1 distance is 3, realized with a zero column from
    # the [4, 2, 3] witness; certification must find it through the recursion
    found = certify_nonexistence(5, 2, 3)
    assert isinstance(found, CounterexampleFound)
    assert found.witness.n == 5


def test_certify_rejects_wrong_k():
    with pytest.raises(UnsupportedError):
        certify_nonexistence(8, 4, 2)


def test_verify_multiplicity_witness_rejects_wrong_hull():
    # the all-ones [5, 2] vector is the simplex code: self-orthogonal, hull 2
    simplex = code_from_multiplicity(MultiplicityVector(2, (1, 1, 1, 1, 1)))
    with pytest.raises(AssertionError, match="hull dimension 2"):
        _verified(simplex, 1, exact=False)


def test_verify_multiplicity_witness_rejects_overclaimed_distance():
    m, _ = _enumerate_multiplicities(8, 2, 5)
    code = code_from_multiplicity(MultiplicityVector(2, m))
    assert _verified(code, 5, exact=True) == 5
    with pytest.raises(AssertionError, match="distance 5, search reported 6"):
        _verified(code, 6, exact=False)
    # a heavier witness passes as "at least d" only
    assert _verified(code, 4, exact=False) == 5
    with pytest.raises(AssertionError, match="distance 5, search reported 4"):
        _verified(code, 4, exact=True)


def test_exhaustive_rejects_witness_heavier_than_its_walk(monkeypatch):
    # with the scan started one below the Griesmer bound, a walk at d that
    # hands back the real walk's witness at d + 1 is a fault: its code has
    # distance d + 1, which the exact re-check refuses
    griesmer, walk = search.griesmer_max_d, search._enumerate_multiplicities

    def heavier(n, k, d, store=None):
        m, examined = walk(n, k, d + 1, store)
        return (m, examined) if m is not None else walk(n, k, d, store)

    monkeypatch.setattr(search, "griesmer_max_d", lambda n, k: griesmer(n, k) - 1)
    monkeypatch.setattr(search, "_enumerate_multiplicities", heavier)
    with pytest.raises(AssertionError, match="witness has distance 3, search reported 2"):
        exhaustive_dh(4, 2)


def _shift_minimum_up(counts):
    # move A_d to A_{d+1}, d the least nonzero weight: the total stays 4^k
    counts = counts.copy()
    d = int(np.flatnonzero(counts[1:])[0]) + 1
    counts[d + 1] += counts[d]
    counts[d] = 0
    return counts


def test_random_search_rejects_forged_chunk_distance(monkeypatch):
    # one candidate, the first to reach the best distance, reports one more
    # and so wins; the re-check enumerates through `code._plane_weights`,
    # which the patch leaves alone
    best_d = random_search(8, 4, 1, seed=0, budget=64).best_d
    real = search._plane_weights
    forged = []

    def forge(*args):
        counts = real(*args)
        if not forged and int(np.flatnonzero(counts[1:])[0]) + 1 == best_d:
            forged.append(True)
            return _shift_minimum_up(counts)
        return counts

    monkeypatch.setattr(search, "_plane_weights", forge)
    with pytest.raises(AssertionError, match="reported"):
        random_search(8, 4, 1, seed=0, budget=64)
    assert forged


def test_random_search_recomputes_witness_distance(monkeypatch):
    # every candidate overclaims its distance, over more than two RNG
    # streams, so the inflated running best carries across them and only a
    # fresh enumeration can catch the forgery
    real = search._plane_weights
    monkeypatch.setattr(search, "_plane_weights",
                        lambda *args: _shift_minimum_up(real(*args)))
    with pytest.raises(AssertionError, match="reported"):
        random_search(8, 4, 1, seed=0, budget=2 * search._RANDOM_CHUNK + 100)


def test_random_search_guard_survives_optimisation():
    # `python -O` drops assert statements; the re-check must still raise
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from hullforge import search\n"
        "real = search._plane_weights\n"
        "def forge(*args):\n"
        "    counts = real(*args)\n"
        "    d = int(np.flatnonzero(counts[1:])[0]) + 1\n"
        "    counts[d + 1] += counts[d]\n"
        "    counts[d] = 0\n"
        "    return counts\n"
        "search._plane_weights = forge\n"
        "try:\n"
        "    search.random_search(8, 4, 1, seed=0, budget=64)\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, 'reported' in str(exc))\n"
    )
    done = run_optimised(script)
    assert (done.returncode, done.stdout) == (0, "1 True\n"), done.stderr


@pytest.mark.parametrize("n, k, budget, message", [
    (4, 4, 10, "1 <= k < n"), (5, 0, 10, "1 <= k < n"), (3, 5, 10, "1 <= k < n"),
    (9, 5, 0, "budget >= 1"), (9, 5, -3, "budget >= 1"),
])
def test_random_search_rejects_bad_inputs(n, k, budget, message):
    with pytest.raises(ValueError, match=message):
        random_search(n, k, 1, seed=0, budget=budget)


@pytest.mark.parametrize("seed, budget", [(-1, 10), (-(2**40), 2048)])
def test_random_search_rejects_negative_seed(seed, budget):
    # a negative seed used to reach numpy's seeding, whose ValueError the
    # CLI could not tell from a programming error
    with pytest.raises(ValueError, match="seed >= 0"):
        random_search(9, 5, 1, seed=seed, budget=budget)


# (n, k, target_d, seed, budget, best_d, SHA-256 of the witness generator's
# bytes or None), as computed on the numpy candidate path that the packed
# row planes replaced: both benchmark sizes, a partial third chunk, planes of
# 2 and 3 words (n = 70, 130), n - k = 1, k = 1, and lifts to k + 1 = 8
RANDOM_PINS = [
    (9, 5, 4, 1722851097, 2048, 4,
     "fb35a6cb5c447d9379ade6d396a69a7c9ad4a86992daa02d49e2c292ec9e5677"),
    (12, 6, 6, 1640193507, 1024, 5, None),
    (9, 4, 1, 3, 2500, 5,
     "5951c0b00a48aab164729b03ba175197afa6d2d1fda8bc88d155af1d47d3fa10"),
    (70, 4, 1, 1, 300, 46,
     "c341e0b8ec477bdfbd963500137025913a78a3e155f8c9dac6734ace3a20801d"),
    (130, 2, 1, 6, 100, 98,
     "71b5273836284d238fff3ebf3a788615e8682a2e1b560677dc432561d6e3033a"),
    (5, 4, 1, 7, 500, 1,
     "d12fe4c4db5bdef0e82871d0cea1ed268eab13d47b9697cc8291b2c6b03ebfdd"),
    (6, 1, 1, 8, 200, 6,
     "9f1dafc4d2bf5e8b1c11758c4dccfc3352087b03cb4415f2e32036fe299d9d8c"),
    (15, 7, 1, 9, 300, 6,
     "445c02674040567ef83b25fad05cb073498f7029722b1137e5707a5c9b23df6c"),
]


def test_random_search_pinned_outputs():
    for n, k, target, seed, budget, best_d, digest in RANDOM_PINS:
        o = random_search(n, k, target, seed=seed, budget=budget)
        got = (hashlib.sha256(o.witness.generator.tobytes()).hexdigest()
               if o.witness is not None else None)
        assert (o.best_d, got) == (best_d, digest), (n, k, seed)


def test_packed_candidates_match_numpy(rng):
    # the planes of [I | a], their matrix, and the packed hull
    # test against the numpy path, for 1..8 rows and up to 140 columns
    hull_dims = set()
    for _ in range(300):
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 141))
        a = rng.integers(0, 4, size=(k, m), dtype=np.uint8)
        a[rng.random(a.shape) < rng.random()] = 0
        g = np.hstack([np.eye(k, dtype=np.uint8), a])
        planes = search._systematic_planes(a)
        assert planes == oracle_row_planes(g)
        assert np.array_equal(gf4._planes_matrix(*planes, k + m), g)
        dim = search._planes_hull_dim(*planes)
        assert dim == hull_dim(LinearCode(g))
        hull_dims.add(dim)
    # self-orthogonal and dependent rows, through the numpy front end
    for g in (simplex_matrix(2), simplex_matrix(3), np.ones((3, 4), np.uint8)):
        dim = search._planes_hull_dim(*gf4._row_planes(g))
        assert dim == hull_dim(LinearCode(g))
        hull_dims.add(dim)
    assert {0, 1, 2, 3} <= hull_dims
    # the hull-2 lift's pivot against the first hull pivot of [I | b],
    # and b without row p against shortening [I | b] on p
    pivots = []
    branches = set()
    for _ in range(600):
        k1, m = int(rng.integers(2, 10)), int(rng.integers(1, 41))
        b = rng.integers(0, 4, size=(k1, m), dtype=np.uint8)
        b[rng.random(b.shape) < rng.random()] = 0
        lifted = LinearCode(np.hstack([np.eye(k1, dtype=np.uint8), b]))
        want = None
        if hull_dim(lifted) == 2:
            want = hull_information_set(lifted)[0]
            shortened = np.hstack([np.eye(k1 - 1, dtype=np.uint8),
                                   np.delete(b, want, axis=0)])
            assert np.array_equal(lifted.shorten({want}).generator, shortened)
            pivots.append(want)
        assert search._lift_pivot(b.tobytes(), m) == want
        if want is not None:
            # b with fewer columns than rows is tested on [I | b^T] first
            branches.add(m < k1)
    assert len(pivots) >= 30 and max(pivots) >= 2
    assert branches == {False, True}


def test_lift_test_matches_oracle_hull_lift(rng):
    # the lift test against the row-side oracle on each of its paths: a
    # table lookup when the smaller side s = min(m, k + 1) is at most 4, on
    # the column side when b has fewer columns than rows, else on the row
    # side; a Python Gram of the columns, built straight from the bytes,
    # or of the rows, for s >= 5.  k + 1 = 2..15 rows, so a column spans
    # one or two 8-byte words, and 1..12 columns, with passing lifts on
    # every path and on two-word columns
    passes = Counter()
    for k1 in range(2, 16):
        for m in range(1, 13):
            path = ("table" if min(m, k1) <= 4 else "python",
                    "columns" if m < k1 else "rows")
            for t in range(12):
                b = rng.integers(0, 4, size=(k1, m), dtype=np.uint8)
                b[rng.random(b.shape) < rng.random() / 2] = 0
                p = search._lift_pivot(b.tobytes(), m)
                got = (None if p is None else
                       search._systematic_planes(np.delete(b, p, axis=0)))
                assert got == oracle_hull_lift(b), (k1, m, t)
                if p is not None:
                    passes[path] += 1
                    passes["two words"] += path == ("python", "columns") and k1 > 8
    assert min(passes.values()) >= 5 and len(passes) == 5, passes


# (s, rank, count): the Gram tables that the engines read, a hull-2 lift
# of side s at rank s - 2 and the k <= 3 walk at rank k - 1: the zero Gram,
# the 5 and 21 point blocks of PG(1, 4) and PG(2, 4), and the XORs of two
# of the 21 and 85 point blocks of PG(2, 4) and PG(3, 4)
_GRAM_TABLES = [(1, 0, 1), (2, 0, 1), (2, 1, 5), (3, 1, 21), (3, 2, 210), (4, 2, 3570)]


@pytest.mark.parametrize("s, rank, count", _GRAM_TABLES,
                         ids=[f"{s}-{count}" for s, _, count in _GRAM_TABLES])
def test_lift_table_is_exact(s, rank, count):
    # the bitmap against elimination on every packed Hermitian s x s Gram
    blocks, eye, ranked = search._gram_table(s, rank)
    assert len(ranked) == max(1, 2 ** (s * s) // 8)
    bits = int.from_bytes(ranked, "little")
    assert bits.bit_count() == count
    grams = set()
    for g in range(2 ** (s * s)):
        glo, ghi = unpacked_gram(g, s)
        grams.add((tuple(glo), tuple(ghi)))
        hit = bits >> g & 1
        assert hit == (len(gf4._eliminate(glo, ghi)) == rank), g
    # the packing is one to one on the Hermitian Grams
    assert len(grams) == 2 ** (s * s)
    # each block is the Gram of its one-column matrix, and eye the identity
    assert len(blocks) == 4 ** s and blocks[bytes(s)] == 0
    for v in product(range(4), repeat=s):
        want = gf4._hermitian_gram_planes([x & 1 for x in v], [x >> 1 for x in v])
        assert 0 <= blocks[bytes(v)] < 2 ** (s * s)
        assert unpacked_gram(blocks[bytes(v)], s) == want, v
    assert unpacked_gram(eye, s) == ([1 << i for i in range(s)], [0] * s)


def test_lift_table_cache_is_bounded():
    # lifts of every side s = min(n - k, k + 1) from 1 to 8, and walks of
    # k = 1, 2 and 3, fill the per-(side, rank) cache with the lifts'
    # (2, 0), (3, 1) and (4, 2) and the walks' (1, 0), (2, 1) and (3, 2)
    # alone, each a bitmap of at most 8 KB.  A walk reads its table through
    # the cached geometry, so both caches start empty
    search._gram_table.cache_clear()
    search._geometry.cache_clear()
    for n, k in ((3, 2), (6, 4), (9, 6), (12, 8), (8, 3), (14, 5), (16, 8),
                 (6, 1), (10, 2), (20, 3)):
        random_search(n, k, 1, seed=5, budget=400)
    exhaustive_dh(25, 3)
    certify_nonexistence(16, 3, 12)
    exhaustive_dh(60, 2)
    exhaustive_dh(9, 1)
    assert search._gram_table.cache_info().currsize == len(_GRAM_TABLES)
    sizes = [len(search._gram_table(s, rank)[2]) for s, rank, _ in _GRAM_TABLES]
    assert sizes == [1, 2, 2, 64, 64, 8192]
    assert search._gram_table.cache_info().currsize == len(_GRAM_TABLES)


def test_hull_dim_of_transposed_systematic_matrix(rng):
    # [I | A] and [I | A^T] have hulls of equal dimension, which the hull-2
    # lift uses to test the smaller Gram
    dims = set()
    for _ in range(300):
        k, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        a = rng.integers(0, 4, size=(k, m), dtype=np.uint8)
        a[rng.random(a.shape) < 0.3 + 0.7 * rng.random()] = 0
        dim = hull_dim(LinearCode(np.hstack([np.eye(k, dtype=np.uint8), a])))
        assert search._planes_hull_dim(*search._systematic_planes(a)) == dim
        assert search._planes_hull_dim(*search._systematic_planes(a.T)) == dim
        dims.add(dim)
    assert {0, 1, 2, 3} <= dims


def test_light_screen_against_weights(rng):
    # the batched screen's light weight bounds d from above, so light <
    # bound implies d < bound for every bound, and for a systematic
    # generator it is exactly d < bound when bound <= 3; widths up to 40
    # span several bytes of the packed planes.  In every other stack the
    # last row is c times another plus at most one symbol, for c = 1, w, w^2
    seen = Counter()
    for t in range(120):
        k = int(rng.integers(1, 8))
        m = int(rng.integers(1, 9) if t % 3 else rng.integers(9, 41))
        stack = rng.integers(0, 4, size=(4, k, m), dtype=np.uint8)
        stack[rng.random(stack.shape) < rng.random()] = 0
        if k > 1 and t % 2:
            c = 1 + t // 2 % 3
            stack[:, -1] = gf4.MUL[c, stack[:, int(rng.integers(k - 1))]]
            stack[:, -1, int(rng.integers(m))] ^= np.uint8(t // 6 % 2)
        light = search._stack_light(stack)
        assert len(light) == len(stack)
        for a, weight in zip(stack, light):
            counts = search._plane_weights(*search._systematic_planes(a), k + m)
            d = int(np.flatnonzero(counts[1:])[0]) + 1
            assert d <= weight, a
            for bound in range(4):
                assert (weight < bound) == (d < bound), (a, bound)
            seen[min(d, 4), weight < 4] += 1
    assert seen[1, True] and seen[2, True] and seen[3, True]
    assert seen[4, False]
    # beyond 3 it can miss: here only the sum of all three rows has weight 3
    a = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
                 dtype=np.uint8)
    assert LinearCode(np.hstack([np.eye(3, dtype=np.uint8), a])).min_distance() == 3
    assert search._stack_light(a[None]) == [4]


class _CountingBits:
    """A bit generator whose `random_raw` calls are counted."""

    def __init__(self, bits, calls):
        self.bits, self.calls = bits, calls

    def random_raw(self, size):
        self.calls["random_raw"] += 1
        return self.bits.random_raw(size)


class _Words:
    """A bit generator stand-in whose 64-bit outputs carry the given 32-bit
    words, the low half first."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        pairs = [self.words.pop(0) | self.words.pop(0) << 32 for _ in range(size)]
        return np.array(pairs, dtype=np.uint64)


def test_draws_match_generator_integers():
    # the raw-word decoder against numpy's own draws, with first buffers
    # of 1..50 words that the draws keep extending: scalar bounds 1..40,
    # bounds just above 2^31 (where Lemire rejects about half the words),
    # and uint8 arrays whose size is not a multiple of 4
    shapes = [(k, m) for k in range(1, 9) for m in range(1, 11) if k * m % 4]
    for seed in range(300):
        rng = np.random.default_rng([seed, 1])
        draws = search._Draws(np.random.default_rng([seed, 1]).bit_generator,
                              1 + seed % 50)
        for t in range(24):
            kind = (seed + t) % 4
            if kind == 0:
                k, m = shapes[(7 * seed + t) % len(shapes)]
                want = rng.integers(0, 4, size=(k, m), dtype=np.uint8)
                assert draws.symbols(k * m) == want.tobytes(), (seed, t)
            elif kind == 3 and t % 8 == 3:
                bound = (1 << 31) + 1 + 977 * t
                assert draws.bounded(bound) == int(rng.integers(bound)), (seed, t)
            else:
                bound = 1 + (13 * seed + 5 * t) % 40
                assert draws.bounded(bound) == int(rng.integers(bound)), (seed, t)


def test_draws_follow_lemire_on_given_words():
    words = _Words([0, 0xC0000000, 0x80000000, 0x40000000,
                    0x4080C0FF, 0xFFFFFF40, 0x99999999, 0])
    draws = search._Draws(words, 2)
    # bound 3 rejects x = 0 (x * 3 mod 2^32 = 0 < 2^32 mod 3 = 1) and takes
    # the next word: 0xC0000000 * 3 >> 32 = 2
    assert draws.bounded(3) == 2
    assert draws.bounded(1) == 0  # takes no word
    assert draws.bounded(2) == 1  # 0x80000000 * 2 >> 32
    assert draws.bounded(4) == 1  # 0x40000000 * 4 >> 32
    # uint8 draws: little-endian bytes, b >> 6, a fresh word for each call,
    # so the three 0xFF bytes left after a 5-symbol draw are skipped
    assert draws.symbols(5) == bytes([3, 3, 2, 1, 1])
    assert draws.symbols(2) == bytes([2, 2])


def test_chunk_walk_extends_a_short_buffer(monkeypatch):
    # a first buffer of one word is extended by the draws that run past it,
    # and the walk gives the candidates of a buffer sized for the chunk
    for n, k in ((9, 5), (12, 6), (6, 1), (5, 4), (15, 7)):
        m = n - k
        calls = Counter()
        full = search._chunk_candidates(
            np.random.default_rng([7, 0]).bit_generator, k, m, 300)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_chunk_words", lambda k, m, size: 1)
            short = search._chunk_candidates(_CountingBits(
                np.random.default_rng([7, 0]).bit_generator, calls), k, m, 300)
        assert np.array_equal(short, full)
        assert calls["random_raw"] > 100, (n, k)


def test_chunk_walk_keeps_only_candidates_below(monkeypatch):
    # with `below`, the walk keeps exactly the rows of the unfiltered stack
    # whose bytes are below it, in chunk order: every candidate is still
    # drawn, lifts included.  m on both sides of k + 1, and chunks in which
    # lifts pass
    passed = Counter()
    lift_pivot = search._lift_pivot

    def counted(raw, m):
        p = lift_pivot(raw, m)
        passed[m < len(raw) // m] += p is not None
        return p
    monkeypatch.setattr(search, "_lift_pivot", counted)
    for k in (1, 4, 5, 6, 8):
        for m in (1, 3, k, k + 2):
            full = search._chunk_candidates(
                np.random.default_rng([k, m]).bit_generator, k, m, 600)
            rows = [a.tobytes() for a in full]
            ordered = sorted(rows)
            for below in (ordered[0], ordered[len(rows) // 9], ordered[-1],
                          rows[-1], b"\x04"):
                short = search._chunk_candidates(
                    np.random.default_rng([k, m]).bit_generator, k, m, 600, below)
                want = full[[row < below for row in rows]]
                assert short.shape == want.shape and np.array_equal(short, want), (k, m)
    assert passed[True] > 20 and passed[False] > 20


# (n, k, seed, budget): k = 1..8 and n - k = 1..10 at equal parity, so lifts
# run with n - k both below and above k + 1; then chunk-crossing budgets on
# three sizes whose search reaches the distance ceiling and one whose does
# not.  (9, 4) reaches it only in its second chunk, from d = 4, so a walk
# that kept only candidates below the best before the ceiling would miss it
ORACLE_RUNS = [
    (k + m, k, 100 * k + m, 150)
    for k in range(1, 9) for m in range(1, 11) if (k + m) % 2 == 0
] + [(8, 4, 5, 1100), (9, 5, 6, 2100), (9, 4, 3, 2500), (12, 6, 7, 1100)]


def test_random_search_matches_oracle_loop():
    reached = {}
    for n, k, seed, budget in ORACLE_RUNS:
        o = random_search(n, k, 1, seed=seed, budget=budget)
        got = (o.best_d,
               o.witness.generator.tobytes() if o.witness is not None else None)
        assert got == oracle_random_search(n, k, seed, budget), (n, k, seed)
        ceiling = min(griesmer_max_d(n, k), sphere_packing_max_d(n, k))
        reached[n, k] = o.best_d == ceiling
    assert len(ORACLE_RUNS) >= 40
    assert {n - k < k + 1 for n, k, _, _ in ORACLE_RUNS} == {False, True}
    # of the long runs, three reach the ceiling, after which the walk keeps
    # only the candidates below the best
    assert [reached[n, k] for n, k, _, _ in ORACLE_RUNS[-4:]] == [True, True, True, False]


def test_random_search_rejection_counts(monkeypatch):
    # the screens leave few candidates to the weights; the light screen
    # runs once per slice of 256, and a Gram is built in Python only for
    # the 43 lifts that pass, the 682 tests on the smaller side, 4 x 4,
    # being table lookups (725 Grams before them), and for the 36
    # candidates whose light weight can still win, which get the hull-1
    # test.  Chunk 2 starts at the ceiling, so its walk keeps only the 409
    # candidates below the best, two slices instead of four; and a
    # candidate not below the best gets no hull test or weights unless its
    # light weight could beat the best strictly.  Before the screens this
    # search made 1,156 Grams and 182 enumerations; before the walk's
    # filter and the one tie rule, 8 slices and 34 enumerations
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    count(search, "_plane_weights")
    count(search, "_planes_hull_dim")
    count(search, "_stack_light")
    count(gf4, "_hermitian_gram_planes")
    random_search(9, 5, 4, seed=3, budget=2048)
    assert calls == {"_plane_weights": 13, "_planes_hull_dim": 36,
                     "_stack_light": 6, "_hermitian_gram_planes": 79}


def test_random_search_slices_keep_the_outcome(monkeypatch):
    # the screen's slices only bound its memory: capped to one candidate
    # each, they give the same outcomes
    runs = [(9, 5, 3, 700), (70, 4, 1, 300), (12, 6, 7, 500)]
    want = [random_search(n, k, 1, seed=s, budget=b) for n, k, s, b in runs]
    monkeypatch.setattr(search, "_SLICE_BYTES", 1)
    assert [random_search(n, k, 1, seed=s, budget=b) for n, k, s, b in runs] == want


def test_screen_runs_every_slice_at_one_size(monkeypatch, rng):
    # a short last slice is filled up with zero A, whose weights are
    # dropped, so every kernel call has the slice's shape, and the screen
    # gives what slices of one candidate each give
    stack = rng.integers(0, 4, size=(300, 5, 4), dtype=np.uint8)
    stack[rng.random(stack.shape) < 0.3] = 0
    shapes = set()
    light = search._stack_light

    def recorded(part):
        shapes.add(part.shape)
        return light(part)
    with monkeypatch.context() as patch:
        patch.setattr(search, "_stack_light", recorded)
        got = search._screen(stack)
    assert shapes == {(256, 5, 4)}
    monkeypatch.setattr(search, "_SLICE_BYTES", 1)
    assert got == search._screen(stack) and len(got) == 300


@pytest.mark.parametrize("slice_bytes", [None, 1])
def test_screen_is_the_light_weight_of_every_candidate(monkeypatch, rng, slice_bytes):
    # slicing and zero padding never move a weight: one int per candidate,
    # in chunk order, around every slice boundary of 256
    if slice_bytes is not None:
        monkeypatch.setattr(search, "_SLICE_BYTES", slice_bytes)
    for size in (1, 255, 256, 257, 600):
        stack = rng.integers(0, 4, size=(size, 5, 4), dtype=np.uint8)
        stack[rng.random(stack.shape) < 0.3] = 0
        got = search._screen(stack)
        assert all(type(weight) is int for weight in got)
        assert got == search._stack_light(stack), size


def test_random_search_without_hull_one_candidate():
    # three candidates, none of them hull-1
    assert random_search(5, 4, 1, seed=0, budget=3) == SearchOutcome(0, None, False, 3)


def test_random_search_rechecks_witness_hull(monkeypatch):
    # every candidate passes the engine's hull test; the winner's real hull
    # is checked again on the numpy path
    monkeypatch.setattr(search, "_planes_hull_dim", lambda lo, hi: 1)
    with pytest.raises(AssertionError, match="hull dimension"):
        random_search(8, 4, 1, seed=0, budget=64)


def test_random_search_evaluates_candidates_packed(monkeypatch):
    # each chunk draws once, raw words from its bit generator, and no
    # candidate, lifts included, builds a LinearCode or calls the numpy
    # kernels: only the final re-check does, with one code and the matmul
    # of its Gram matrix
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("rref", "kernel", "matmul"):
        count(gf4, name)
    count(hull, "hull_report")
    count(LinearCode, "__init__")
    default_rng = np.random.default_rng

    class Generator:
        def __init__(self, seed):
            self.rng = default_rng(seed)
            self.bit_generator = _CountingBits(self.rng.bit_generator, calls)

        def integers(self, *args, **kwargs):
            calls["integers"] += 1
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Generator)
    assert random_search(9, 5, 4, seed=3, budget=2048).witness is not None
    assert calls == {"__init__": 1, "matmul": 1, "random_raw": 2}


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

"""Search for quaternary hull-1 codes.

Exhaustive determination of the largest hull-1 distance for k <= 3 works in
the multiplicity-vector representation: every code without a zero column is
equivalent to a code whose generator columns are simplex columns with
multiplicities m_i, so enumerating m with column-count pruning is a complete
search over that class.  Codes with a zero column (dual distance 1) are
covered by the result at length n - 1; the lengths k..n are solved bottom-up.

For k >= 4 only a seeded, deterministic randomized search is offered: a
serial run over fixed-size chunks, each with its own RNG stream, so a seed
and a budget fix every emitted value.  It never claims exhaustiveness, and
every accepted witness is re-verified by full enumeration.

Both engines re-check their witness with explicit raises, so the checks
survive `python -O`.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import gf4
from .bounds import griesmer_max_d, sphere_packing_max_d
from .code import DEFAULT_ENUM_CAP, LinearCode
from .construct import (
    MultiplicityVector,
    code_from_multiplicity,
    simplex_length,
    simplex_matrix,
)
from .exceptions import UnsupportedError
from .hull import hull_dim, hull_information_set

_RANDOM_CHUNK = 1024


@dataclass(frozen=True)
class SearchOutcome:
    best_d: int
    witness: LinearCode | None
    exhaustive: bool
    explored: int


@dataclass(frozen=True)
class NonexistenceCertificate:
    n: int
    k: int
    d: int
    pruning_bounds: tuple  # (lower, upper) per-multiplicity interval
    vectors_examined: int


@dataclass(frozen=True)
class CounterexampleFound:
    n: int
    k: int
    d: int
    witness: LinearCode


class _ProjectiveGeometry:
    """Per-dimension tables for fast multiplicity-vector evaluation.

    Codeword weights of C_k(m) only depend on the projective class of the
    message, so weights are Z @ m for a fixed 0/1 incidence matrix Z; the
    Gram matrix is the XOR of the per-column rank-one Gram blocks with odd
    multiplicity.

    The DFS works on Python integers derived from these tables: a weight
    vector is packed into one int of `bits`-bit lanes (`pack`), and a Gram
    matrix into one int of 2-bit entries (`gram_bits`, unpacked again only
    by `gram_rank`).
    """

    def __init__(self, k):
        self.k = k
        self.length = simplex_length(k)
        s = simplex_matrix(k)
        # Z[x, i] = 1 iff class-x messages are nonzero on column i
        self.incidence = (gf4.matmul(s.T, s) != 0).astype(np.int64)
        # rank-one Hermitian Gram blocks h_i conj(h_i)^T, flattened and
        # packed as 2-bit entries
        self.gram_bits = []
        for i in range(self.length):
            col = s[:, i: i + 1]
            block = gf4.matmul(col, gf4.conj_transpose(col)).reshape(-1)
            self.gram_bits.append(self.pack(block, 2))
        # incidence column suffix sums, for distance pruning
        self.suffix = np.zeros((self.length, self.length + 1), dtype=np.int64)
        self.suffix[:, :-1] = np.cumsum(self.incidence[:, ::-1], axis=1)[:, ::-1]

    @staticmethod
    def pack(values, bits):
        """values[x] in lane x: bits [x * bits, (x + 1) * bits) of one int."""
        return sum(int(v) << (x * bits) for x, v in enumerate(values))

    def gram_rank(self, packed):
        k = self.k
        flat = [(packed >> (2 * j)) & 3 for j in range(k * k)]
        return gf4.rank(np.array(flat, dtype=np.uint8).reshape(k, k))


_GEOMETRY = {}


def _geometry(k):
    if k not in _GEOMETRY:
        _GEOMETRY[k] = _ProjectiveGeometry(k)
    return _GEOMETRY[k]


def multiplicity_bounds(n, k, d):
    """Per-column multiplicity interval implied by minimum weight >= d."""
    if k >= 3:
        lower = max(0, 4 * d - 3 * n)
        upper = n - ceil((4 ** (k - 1) - 1) * d / (3 * 4 ** (k - 2)))
    elif k == 2:
        # each projective message class vanishes on exactly one column
        lower, upper = 0, n - d
    else:
        # single column: its multiplicity is the whole length
        lower, upper = 0, n
    return lower, min(upper, n)


def _enumerate_multiplicities(n, k, d):
    """Walk the multiplicity vectors of weight >= d, pruned by the column
    bounds, until the first hull-1 hit.

    Returns (witness_m or None, vectors_examined).  vectors_examined counts
    every complete vector that the column bounds and the suffix pruning let
    through, up to and including the witness, whether or not its weights
    reach d.

    The walk runs on Python ints, with no numpy call per node.  The weight
    vector is one int with a `bits`-bit lane per projective class; adding
    `bias` = 2^(bits-1) - d to every lane sets a lane's top bit exactly when
    its weight is >= d, so "every weight >= d" is one mask test against
    `high`.  `bits` grows with n so that no lane, even with the maxed-out
    suffix and the bias added, carries into the next.  The Gram matrix is
    one int of 2-bit entries, ranked only at leaves that reach weight d.
    """
    geo = _geometry(k)
    length = geo.length
    lower, upper = multiplicity_bounds(n, k, d)
    if upper < lower or upper * length < n or lower * length > n:
        return None, 0
    ranks = {}  # packed Gram -> rank

    def hull_one(gram):
        if gram not in ranks:
            ranks[gram] = geo.gram_rank(gram)
        return ranks[gram] == k - 1

    gram_bits = geo.gram_bits
    last = length - 1
    if last == 0:
        # k = 1: the single column takes all of n, which the checks above
        # put inside [lower, upper], so this one vector is the only leaf
        hit = n >= d and hull_one(gram_bits[0] if n % 2 else 0)
        return ((n,) if hit else None), 1

    bits = (max(n, d) * (length + 2)).bit_length() + 1
    ones = geo.pack([1] * length, bits)
    high = ones << (bits - 1)
    bias = high - d * ones
    inc = [geo.pack(geo.incidence[:, i], bits) for i in range(length)]
    # weights + prune[pos] has every top bit set iff a maxed-out suffix from
    # pos on can still lift every weight to d
    prune = [upper * geo.pack(geo.suffix[:, i], bits) + bias for i in range(length)]
    orders = {}  # (pos, remaining) -> value order; lo and hi follow from both
    m = [0] * length
    examined = 0
    witness = None

    def recurse(pos, remaining, weights, gram):
        # the caller has checked prune[pos]; the last column takes the rest
        nonlocal examined, witness
        order = orders.get((pos, remaining))
        if order is None:
            # feasibility of the remaining sum
            lo = max(lower, remaining - upper * (last - pos))
            hi = min(upper, remaining - lower * (last - pos))
            # try the value closest to the running mean first: witnesses
            # sit near balanced multiplicities, so they surface much earlier
            mean = remaining / (length - pos)
            order = sorted(range(lo, hi + 1), key=lambda x: (abs(x - mean), x))
            orders[pos, remaining] = order
        step = inc[pos]
        block = gram_bits[pos]
        if pos + 1 == last:
            # leaves: lo and hi keep the rest inside [lower, upper]
            for v in order:
                examined += 1
                rest = remaining - v
                if (weights + v * step + rest * inc[last] + bias) & high == high:
                    gram_v = gram ^ block if v % 2 else gram
                    if hull_one(gram_v ^ gram_bits[last] if rest % 2 else gram_v):
                        m[pos], m[last] = v, rest
                        witness = tuple(m)
                        return
            return
        ahead = prune[pos + 1]
        for v in order:
            w = weights + v * step
            if (w + ahead) & high != high:
                continue
            m[pos] = v
            recurse(pos + 1, remaining - v, w, gram ^ block if v % 2 else gram)
            if witness is not None:
                return

    if prune[0] & high == high:
        recurse(0, n, 0, 0)
    return witness, examined


def _verify_multiplicity_witness(k, m, expect_d):
    code = code_from_multiplicity(MultiplicityVector(k, tuple(m)))
    dim = hull_dim(code)
    if dim != 1:
        raise AssertionError(f"multiplicity witness {m} has hull dimension {dim}")
    actual = code.min_distance()
    if actual < expect_d:
        raise AssertionError(
            f"multiplicity witness {m} has distance {actual} < {expect_d}"
        )
    return code, actual


_EXHAUSTIVE_CACHE = {}


def exhaustive_dh(n, k):
    """Exact largest hull-1 distance for k in {1, 2, 3}.

    Scans d downward from the classical bounds; the first d with a
    multiplicity-vector witness (or a zero-column lift of a shorter witness)
    is exact.  `explored` is cumulative over the lengths k..n.
    """
    if k not in (1, 2, 3):
        raise UnsupportedError("exhaustive search supports k <= 3 only")
    if n < k:
        raise ValueError("need n >= k")
    key = (n, k)
    if key in _EXHAUSTIVE_CACHE:
        return _EXHAUSTIVE_CACHE[key]
    # fill the shorter lengths bottom-up, so that the call on n - 1 below is
    # a cache hit and the call depth stays flat for any n
    for length in range(k, n - 1):
        if (length, k) not in _EXHAUSTIVE_CACHE:
            shorter = _EXHAUSTIVE_CACHE.get((length - 1, k))
            _EXHAUSTIVE_CACHE[length, k] = _exhaustive_length(length, k, shorter)
    shorter = exhaustive_dh(n - 1, k) if n - 1 >= k else None
    outcome = _exhaustive_length(n, k, shorter)
    _EXHAUSTIVE_CACHE[key] = outcome
    return outcome


def _exhaustive_length(n, k, shorter):
    """exhaustive_dh at length n, given its outcome at length n - 1."""
    dmax = min(griesmer_max_d(n, k), sphere_packing_max_d(n, k))
    explored = shorter.explored if shorter else 0
    best_d = 0
    witness = None
    for d in range(dmax, 0, -1):
        if shorter and shorter.best_d >= d:
            # the zero-column lift already achieves d; no deeper scan needed
            break
        m, examined = _enumerate_multiplicities(n, k, d)
        explored += examined
        if m is not None:
            code, actual = _verify_multiplicity_witness(k, m, d)
            best_d, witness = actual, code
            break
    if shorter and shorter.best_d > best_d:
        best_d = shorter.best_d
        witness = _append_zero_column(shorter.witness) if shorter.witness else None
    return SearchOutcome(best_d, witness, exhaustive=True, explored=explored)


def _append_zero_column(code):
    g = np.hstack([code.generator, np.zeros((code.k, 1), dtype=np.uint8)])
    return LinearCode.from_generator(g)


def certify_nonexistence(n, k, d):
    """Exhaust the pruned multiplicity space (and the zero-column recursion)
    for an [n, k, >=d] hull-1 code; returns a certificate or a witness."""
    if k not in (2, 3):
        raise UnsupportedError("certification supports k in {2, 3}")
    examined = 0
    length_n = n
    while length_n >= k and griesmer_max_d(length_n, k) >= d:
        m, count = _enumerate_multiplicities(length_n, k, d)
        examined += count
        if m is not None:
            code, _ = _verify_multiplicity_witness(k, m, d)
            while code.n < n:
                code = _append_zero_column(code)
            return CounterexampleFound(n, k, d, code)
        length_n -= 1
    return NonexistenceCertificate(n, k, d, multiplicity_bounds(n, k, d), examined)


# -- randomized search -----------------------------------------------------


def _standard_form(k, n, a):
    """[I_k | a]: full rank and already in RREF."""
    g = np.zeros((k, n), dtype=np.uint8)
    g[:, :k] = np.eye(k, dtype=np.uint8)
    g[:, k:] = a
    return g


def _search_chunk(n, k, seed, chunk_index, size):
    """Deterministic per-chunk stream: fresh samples, single-entry mutations
    of the chunk best, and hull-2 shorten moves from length n + 1."""
    rng = np.random.default_rng([seed, chunk_index])
    best = None  # (d, gen_bytes, code)
    current = None
    for j in range(size):
        mode = j % 3
        code = None
        if mode == 1 and current is not None:
            a = current.copy()
            a[rng.integers(k), rng.integers(n - k)] = rng.integers(4)
            code = LinearCode(_standard_form(k, n, a))
            current = a
        elif mode == 2 and k + 1 <= n:
            b = rng.integers(0, 4, size=(k + 1, n - k), dtype=np.uint8)
            lifted = LinearCode(_standard_form(k + 1, n + 1, b))
            if hull_dim(lifted) == 2:
                pivots = hull_information_set(lifted)
                if pivots:
                    shortened = lifted.shorten({pivots[0]})
                    if shortened.k == k and shortened.n == n:
                        code = shortened
        if code is None:
            a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
            code = LinearCode(_standard_form(k, n, a))
            current = a
        if hull_dim(code) != 1:
            continue
        d = code.min_distance()
        key = (d, _neg_bytes(code.generator.tobytes()))
        if best is None or key > best[0]:
            best = (key, code)
    return best


def _neg_bytes(b):
    # order so that higher tuple compares prefer lexicographically *smaller* bytes
    return bytes(255 - x for x in b)


def random_search(n, k, target_d, seed, budget):
    """Seeded randomized search for an [n, k] hull-1 code of distance
    >= target_d.

    The budget is split into chunks of _RANDOM_CHUNK candidates, run one
    after another; each chunk draws from its own RNG stream seeded with
    (seed, chunk index).  The best chunk result wins, ties going to the
    lexicographically least generator, so the same (seed, budget) always
    gives the same outcome.
    """
    if k > DEFAULT_ENUM_CAP:
        raise UnsupportedError(f"k={k} exceeds the distance cap {DEFAULT_ENUM_CAP}")
    best = None
    for index, offset in enumerate(range(0, budget, _RANDOM_CHUNK)):
        res = _search_chunk(n, k, seed, index, min(_RANDOM_CHUNK, budget - offset))
        if res is not None and (best is None or res[0] > best[0]):
            best = res
    if best is None:
        return SearchOutcome(0, None, exhaustive=False, explored=budget)
    (d, _), code = best
    dim = hull_dim(code)
    if dim != 1:
        raise AssertionError(f"randomized witness has hull dimension {dim}")
    actual = code.min_distance()
    if actual != d:
        raise AssertionError(
            f"randomized witness has distance {actual}, chunk reported {d}"
        )
    if d < target_d:
        return SearchOutcome(d, None, exhaustive=False, explored=budget)
    return SearchOutcome(d, code, exhaustive=False, explored=budget)

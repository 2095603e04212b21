"""Search for quaternary hull-1 codes.

Exhaustive determination of the largest hull-1 distance for k <= 3 works in
the multiplicity-vector representation: every code without a zero column is
equivalent to a code whose generator columns are simplex columns with
multiplicities m_i, so enumerating m with column-count pruning is a complete
search over that class.  Codes with a zero column (dual distance 1) are
covered by the result at length n - 1; the lengths k..n are solved bottom-up.
The walk is a DFS on packed Python ints over the leading columns; each node
it reaches at a fixed depth is settled by one numpy evaluation over a table
of every completion of the remaining columns, in the DFS's own order.

For k >= 4 only a seeded, deterministic randomized search is offered: one
loop over the budget, with one running best, that starts a new RNG stream
every _RANDOM_CHUNK candidates, so a seed and a budget fix every emitted
value.  It never claims exhaustiveness.
Candidates are evaluated on packed row planes, two Python ints per row as
in `gf4._eliminate`: the hull test is the rank of a Gram matrix built by
popcount parity, a hull-2 lift reads its coordinate off the same reduced
Gram, and weights come from the shared `code._plane_weights`, with no
`LinearCode` per candidate.  Four exact rejections come before the
weights, the first three before the candidate's Gram:
- a lift's hull-2 test runs on the smaller of [I | b] and [I | b^T], whose
  hulls have equal dimension (C and its Hermitian dual share their hull);
- a candidate with a row, or a sum y + c x of two rows, lighter than the
  running best is skipped;
- once the best reaches min(Griesmer, sphere-packing), the largest distance
  any [n, k] code can have, a candidate can only tie, so one whose
  generator bytes are not below the best's is skipped;
- a candidate whose hull is not 1-dimensional is skipped.
The accepted witness is then re-verified on the independent numpy path
(`hull.hull_dim` over `gf4.hermitian_gram`, and the weights of a fresh
`LinearCode`).

Both engines re-check their witness with explicit raises, so the checks
survive `python -O`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf4
from .bounds import griesmer_max_d, sphere_packing_max_d
from .code import DEFAULT_ENUM_CAP, LinearCode, _plane_weights
from .construct import (
    MultiplicityVector,
    code_from_multiplicity,
    simplex_length,
    simplex_matrix,
)
from .exceptions import UnsupportedError
from .hull import hull_dim

_RANDOM_CHUNK = 1024
# most rows, width**span, in one settled-subtree table of the k <= 3 DFS
_TABLE_ROWS = 1024


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
    # (lower, upper) per-multiplicity interval; None when d is above the
    # Griesmer bound, which leaves nothing to enumerate
    pruning_bounds: tuple | None
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
    matrix into one int of 2k rows of k bits (`gram_bits`): the lo planes of
    its rows as `gf4._hermitian_gram_planes` returns them, then the hi
    planes, which `gram_rank` slices back into the rows of
    `gf4._eliminate`.  Its completion tables take the lane sums of their
    rows from `incidence` and `suffix` as numpy integers of the same
    `bits`, so that a packed weight and a table row line up lane for lane,
    and XOR the same `gram_bits`.
    """

    def __init__(self, k):
        self.k = k
        self.length = simplex_length(k)
        s = simplex_matrix(k)
        # Z[x, i] = 1 iff class-x messages are nonzero on column i
        self.incidence = (gf4.matmul(s.T, s) != 0).astype(np.int64)
        # rank-one Hermitian Gram blocks h_i conj(h_i)^T as 2k packed rows
        self.gram_bits = []
        for i in range(self.length):
            lo, hi = gf4._hermitian_gram_planes(*gf4._row_planes(s[:, i: i + 1]))
            self.gram_bits.append(self.pack(lo + hi, k))
        # incidence column suffix sums, for distance pruning
        self.suffix = np.zeros((self.length, self.length + 1), dtype=np.int64)
        self.suffix[:, :-1] = np.cumsum(self.incidence[:, ::-1], axis=1)[:, ::-1]

    @staticmethod
    def pack(values, bits):
        """values[x] in lane x: bits [x * bits, (x + 1) * bits) of one int."""
        return sum(int(v) << (x * bits) for x, v in enumerate(values))

    def gram_rank(self, packed):
        k = self.k
        rows = [packed >> (r * k) & ((1 << k) - 1) for r in range(2 * k)]
        return len(gf4._eliminate(rows[:k], rows[k:]))


@lru_cache(maxsize=None)
def _geometry(k):
    return _ProjectiveGeometry(k)


def multiplicity_bounds(n, k, d):
    """Per-column multiplicity interval implied by minimum weight >= d."""
    if k >= 3:
        lower = max(0, 4 * d - 3 * n)
        # an integer ceiling: in floats it goes wrong from d of about 2^50
        upper = n + -(4 ** (k - 1) - 1) * d // (3 * 4 ** (k - 2))
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

    The prune before position p keeps a prefix when every class x has
    slack W_x + upper * suffix[x, p] - d >= 0, W being the prefix weights.
    Fixing column p at v changes the slack by (v - upper) * Z[x, p] <= 0,
    so slack never grows along a path.  A vector therefore passes every
    prune on its path exactly when it passes the deepest one, before
    column last - 1: that is the test for "examined", and the shallower
    prunes only cut subtrees that hold no examined vector.

    The walk has two parts.  Columns 0..cut-1 are a DFS on Python ints,
    with no numpy call per node.  The weight vector is one int with a
    `bits`-bit lane per projective class; adding `bias` = 2^(bits-1) - d to
    every lane sets a lane's top bit exactly when its weight is >= d, so
    "every weight >= d" is one mask test against `high`.  `bits` grows with
    n so that no lane, even with the maxed-out suffix and the bias added,
    carries into the next, and is rounded up to 16, 32 or 64, so that one
    `to_bytes` and `np.frombuffer` read a packed weight as numpy lanes.

    Each node the DFS reaches at cut = length - span is settled by one
    numpy evaluation over the table of its remaining sum: every completion
    (m_cut..m_last), in the DFS's own value order, with its lane sums
    through last - 2 plus the maxed-out last two columns, its lane sums
    through last, and its Gram parity XOR.  The rows that pass the deepest
    prune are the vectors examined, and the witness is the first of them
    whose weights all reach d and whose Gram matrix, ranked only then, has
    rank k - 1.  `span` is the largest value with
    width^span <= _TABLE_ROWS, width = upper - lower + 1, but at least 2
    and at most length; the tables are freed on return.

    A d < 1 would overfill the lanes, so it raises ValueError; a lane of
    more than 64 bits raises UnsupportedError.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
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

    fit = (max(n, d) * (length + 2)).bit_length() + 1
    bits = next((b for b in (16, 32, 64) if b >= fit), None)
    if bits is None:
        raise UnsupportedError(f"n={n} is too large for 64-bit weight lanes")
    lane = np.dtype(f"<i{bits // 8}")
    width = upper - lower + 1
    span = 2
    while span < length and width ** (span + 1) <= _TABLE_ROWS:
        span += 1
    cut = length - span
    ones = geo.pack([1] * length, bits)
    high = ones << (bits - 1)
    bias = high - d * ones
    inc = [geo.pack(geo.incidence[:, i], bits) for i in range(cut)]
    # weights + prune[pos] has every top bit set iff a maxed-out suffix from
    # pos on can still lift every weight to d
    prune = [upper * geo.pack(geo.suffix[:, i], bits) + bias for i in range(cut + 1)]
    orders = {}  # (pos, remaining) -> value order; lo and hi follow from both
    tables = {}  # remaining at cut -> (sums, grams, rows)
    m = [0] * length  # recurse sets m[:cut], fill sets m[cut:]
    examined = 0
    witness = None

    def values(pos, remaining):
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
        return order

    def fill(pos, remaining, out):
        # append every completion (m_pos..m_last) to out, in DFS order; the
        # last column takes the rest
        if pos == last:
            m[last] = remaining
            out += m[cut:]
            return
        for v in values(pos, remaining):
            m[pos] = v
            fill(pos + 1, remaining - v, out)

    incidence = geo.incidence[:, cut:].astype(lane)
    ceiling = (upper * geo.suffix[:, last - 1]).astype(lane)[:, None]
    blocks = np.array(gram_bits[cut:], dtype=np.int64)

    def table(remaining):
        # per class x and row r: the lane sums through last - 2 with the
        # maxed-out last two columns (the deepest prune), then the weights
        # of the whole completion; and the Gram parity XOR of each row
        out = []
        fill(cut, remaining, out)
        rows = np.array(out, dtype=lane).reshape(-1, span)
        partial = incidence[:, :-2] @ rows[:, :-2].T
        sums = np.stack([partial + ceiling, partial + incidence[:, -2:] @ rows[:, -2:].T])
        grams = np.bitwise_xor.reduce(np.where(rows % 2 == 1, blocks, 0), axis=1)
        return sums, grams, rows

    def settle(remaining, weights, gram):
        nonlocal examined, witness
        found = tables.get(remaining)
        if found is None:
            found = tables[remaining] = table(remaining)
        sums, grams, rows = found
        need = d - np.frombuffer(weights.to_bytes(length * bits // 8, "little"), lane)
        passed, reached = np.logical_and.reduce(sums >= need[:, None], axis=1)
        for r in reached.nonzero()[0].tolist():
            if hull_one(gram ^ int(grams[r])):
                examined += int(np.count_nonzero(passed[: r + 1]))
                witness = tuple(m[:cut] + rows[r].tolist())
                return
        examined += int(np.count_nonzero(passed))

    def recurse(pos, remaining, weights, gram):
        # the caller has checked prune[pos]
        if pos == cut:
            settle(remaining, weights, gram)
            return
        step = inc[pos]
        block = gram_bits[pos]
        ahead = prune[pos + 1]
        for v in values(pos, remaining):
            w = weights + v * step
            if (w + ahead) & high != high:
                continue
            m[pos] = v
            recurse(pos + 1, remaining - v, w, gram ^ block if v % 2 else gram)
            if witness is not None:
                return

    try:
        if prune[0] & high == high:
            recurse(0, n, 0, 0)
    finally:
        # the recursive closures hold themselves; breaking those cycles frees
        # the tables now instead of at the next cyclic garbage collection
        recurse = fill = None
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
        witness = _pad(shorter.witness, n)
    return SearchOutcome(best_d, witness, exhaustive=True, explored=explored)


def _pad(code, n):
    """code with zero columns appended up to length n; they keep the RREF."""
    return LinearCode(np.hstack([code.generator,
                                 np.zeros((code.k, n - code.n), dtype=np.uint8)]))


def certify_nonexistence(n, k, d):
    """Exhaust the pruned multiplicity space (and the zero-column recursion)
    for an [n, k, >=d] hull-1 code; returns a certificate or a witness."""
    if k not in (1, 2, 3):
        raise UnsupportedError("certification supports k <= 3 only")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    examined = 0
    length_n = n
    while length_n >= k and griesmer_max_d(length_n, k) >= d:
        m, count = _enumerate_multiplicities(length_n, k, d)
        examined += count
        if m is not None:
            code, _ = _verify_multiplicity_witness(k, m, d)
            return CounterexampleFound(n, k, d, _pad(code, n))
        length_n -= 1
    bounds = multiplicity_bounds(n, k, d) if griesmer_max_d(n, k) >= d else None
    return NonexistenceCertificate(n, k, d, bounds, examined)


# -- randomized search -----------------------------------------------------


# bytes of 0/1 at bits 8t, t = 0..7, times _GATHER puts bit t of the result
# at bit 56 + t; every partial product lands on its own bit, so nothing carries
_GATHER = 0x0102040810204080
_LOW_BITS = 0x0101010101010101


def _systematic_planes(a):
    """Row planes of [I | a] for a uint8 array a, as `gf4._row_planes`
    builds them but with no numpy call: at candidate size its packbits
    costs as much as the hull test."""
    k, m = a.shape
    raw = a.tobytes()
    # the planes of all of a, row after row, from 8 symbols at a time
    lo = hi = 0
    for s in range(0, len(raw), 8):
        w = int.from_bytes(raw[s: s + 8], "little")
        lo |= (((w & _LOW_BITS) * _GATHER >> 56) & 255) << s
        hi |= ((((w >> 1) & _LOW_BITS) * _GATHER >> 56) & 255) << s
    mask = (1 << m) - 1
    return (
        [1 << i | (lo >> (i * m) & mask) << k for i in range(k)],
        [(hi >> (i * m) & mask) << k for i in range(k)],
    )


def _planes_hull_dim(lo, hi):
    return len(lo) - len(gf4._eliminate(*gf4._hermitian_gram_planes(lo, hi)))


def _hull_lift(b):
    """Row planes of [I_k | b without row p], which is [I | b] (k + 1 rows)
    shortened on its first hull pivot p, when [I | b] has hull dimension 2;
    None otherwise.

    [I | b] and [I | b^T] have hulls of equal dimension: C and its Hermitian
    dual [conj(b)^T | I] share their hull, and conjugation keeps the rank
    of the Gram.  So when b is wider than tall the hull test runs on the
    smaller Gram of [I | b^T], and the row-side Gram, which names p, is
    built only for a lift that passes.  The shortened planes are the rows
    already built, with bit p deleted.
    """
    k1, m = b.shape
    # b.T is a view whose bytes `_systematic_planes` reads in C order
    if m < k1 and _planes_hull_dim(*_systematic_planes(b.T)) != 2:
        return None
    lo, hi = _systematic_planes(b)
    glo, ghi = gf4._hermitian_gram_planes(lo, hi)
    if len(glo) - len(gf4._eliminate(glo, ghi)) != 2:
        return None
    # hull vectors are conj(u) . [I | b] for u in the Gram kernel, so p is
    # the least c on which some kernel vector is nonzero: the least c whose
    # unit vector is outside the Gram's row space, and in RREF a unit
    # vector is in the row space exactly when it is a row
    rows = set(zip(glo, ghi))
    p = next(c for c in range(k1) if (1 << c, 0) not in rows)
    # the shortened rows: every row but p, with column p deleted
    low = (1 << p) - 1
    return tuple(
        [x & low | x >> (p + 1) << p for r, x in enumerate(plane) if r != p]
        for plane in (lo, hi)
    )


def _light(lo, hi, bound):
    """True when a row y, or y + c x for an earlier row x and c in
    {1, w, w^2}, has weight below bound: then so has the code's distance.

    For a systematic generator and bound <= 3 the converse holds too: a
    codeword of weight <= 2 has at most two nonzero message symbols, so it
    is a multiple of a row or of some y + c x.
    """
    rows = list(zip(lo, hi))
    for j, (y0, y1) in enumerate(rows):
        if (y0 | y1).bit_count() < bound:
            return True
        for x0, x1 in rows[:j]:
            # w x has the planes (x1, x0 ^ x1) and w^2 x (x0 ^ x1, x0)
            x2 = x0 ^ x1
            if (((y0 ^ x0) | (y1 ^ x1)).bit_count() < bound
                    or ((y0 ^ x1) | (y1 ^ x2)).bit_count() < bound
                    or ((y0 ^ x2) | (y1 ^ x0)).bit_count() < bound):
                return True
    return False


def random_search(n, k, target_d, seed, budget):
    """Seeded randomized search for an [n, k] hull-1 code of distance
    >= target_d.

    One loop over the budget: fresh samples [I | A], single-entry mutations
    of the last [I | A] drawn, and hull-2 shorten moves from length n + 1,
    in turn.  Every _RANDOM_CHUNK candidates it starts a new RNG stream,
    seeded with (seed, chunk index), so the same (seed, budget) always
    gives the same outcome.  The largest distance wins, ties going to the
    lexicographically least generator.

    Candidates are row planes (lo, hi).  Besides the draws and the weights,
    only the generator bytes of the tie-break make numpy calls.  Four exact
    rejections come before the weights: a lift whose hull is not
    2-dimensional (`_hull_lift`, on the smaller Gram), a candidate with a
    light row or row pair (`_light`), a tie that cannot win once the best
    distance reaches the Griesmer and sphere-packing ceiling, and a hull
    dimension other than 1.  None of them changes a draw or the outcome.
    """
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    if k > DEFAULT_ENUM_CAP:
        raise UnsupportedError(f"k={k} exceeds the distance cap {DEFAULT_ENUM_CAP}")
    # no [n, k] code has a larger distance
    ceiling = min(griesmer_max_d(n, k), sphere_packing_max_d(n, k))
    best_d, best = 0, None  # best: the bytes of the best hull-1 generator
    for t in range(budget):
        j = t % _RANDOM_CHUNK
        if j == 0:
            rng = np.random.default_rng([seed, t // _RANDOM_CHUNK])
        mode = j % 3
        planes = None
        if mode == 1:
            # set one entry of A in the last [I | A]: its value is drawn
            # first, then its row and its column
            value = int(rng.integers(4))
            i = int(rng.integers(k))
            bit = 1 << (k + int(rng.integers(n - k)))
            lo, hi = current[0][:], current[1][:]
            lo[i] = lo[i] | bit if value & 1 else lo[i] & ~bit
            hi[i] = hi[i] | bit if value & 2 else hi[i] & ~bit
            planes = current = lo, hi
        elif mode == 2:
            planes = _hull_lift(rng.integers(0, 4, size=(k + 1, n - k), dtype=np.uint8))
        if planes is None:
            a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
            planes = current = _systematic_planes(a)
        if _light(*planes, best_d):
            # a codeword with at most two nonzero message symbols is
            # lighter than the running best
            continue
        tie_only = best_d >= ceiling
        if tie_only:
            # no candidate can beat the best, only tie with it
            gen = gf4._planes_matrix(*planes, n).tobytes()
            if gen >= best:
                continue
        if _planes_hull_dim(*planes) != 1:
            continue
        counts = _plane_weights(*planes, n)
        d = int(np.flatnonzero(counts[1:])[0]) + 1
        if d < best_d:
            continue
        if not tie_only:
            gen = gf4._planes_matrix(*planes, n).tobytes()
        if d > best_d or gen < best:
            best_d, best = d, gen
    if best is None:
        return SearchOutcome(0, None, exhaustive=False, explored=budget)
    # a fresh object: nothing the loop computed is reused
    code = LinearCode(np.frombuffer(best, dtype=np.uint8).reshape(k, n))
    dim = hull_dim(code)
    if dim != 1:
        raise AssertionError(f"randomized witness has hull dimension {dim}")
    actual = code.min_distance()
    if actual != best_d:
        raise AssertionError(
            f"randomized witness has distance {actual}, search reported {best_d}"
        )
    return SearchOutcome(best_d, code if best_d >= target_d else None,
                         exhaustive=False, explored=budget)

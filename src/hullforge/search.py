"""Search for quaternary hull-1 codes, by two engines.

- Exhaustive, k <= 3: `exhaustive_dh` solves a column of lengths and
  `certify_nonexistence` proves that no [n, k, >= d] code exists, both by
  the walk over multiplicity vectors (`_enumerate_multiplicities`, pruned
  by `multiplicity_bounds`, on the constants of `_geometry`).
- Randomized, seeded and never exhaustive: `random_search`, whose chunks
  `_chunk_candidates` draws (from `_Draws`, testing hull-2 lifts in
  `_lift_pivot`) and `_screen` weighs (`_stack_light`).

Both engines read the packed Hermitian Grams of `_gram_table`, and both
re-check their witness on an independent path in `_verified`.
"""

import struct
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import and_, getitem

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
# most rows, width**span, in one settled-subtree table of the k <= 3 DFS,
# and in one after a walk passes _SETTLE_LIMIT settles and restarts
_TABLE_ROWS = 4096
_RESTART_ROWS = 59049
_SETTLE_LIMIT = 3000
# the struct code of an unsigned little-endian weight lane of each width
_LANE_CODES = {16: "H", 32: "I", 64: "Q"}


@dataclass(frozen=True)
class SearchOutcome:
    best_d: int
    witness: LinearCode | None
    exhaustive: bool
    explored: int
    # exhaustive_dh's outcome at n - 1 for the same k; None at n = k and for
    # a randomized search
    shorter: "SearchOutcome | None" = field(default=None, repr=False, compare=False)


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


@lru_cache(maxsize=None)
def _gram_table(s, rank):
    """The Hermitian s x s Grams, 1 <= s <= 4, packed in s^2 bits, and
    those of rank `rank` <= 2: the packed block of the bytes of each
    s-symbol vector, the packed identity, and the bitmap of the rank, bit
    g % 8 of byte g // 8 for the packed Gram g.  The k <= 3 walk reads
    (k, k - 1), whose bitmap holds the hull-1 codes, and a hull-2 lift
    reads (s, s - 2).

    The packing, the upper triangle of the 1-plane with its diagonal, row
    after row, then the strict upper triangle of the w-plane, is linear and
    one to one on Hermitian Grams.  Every nonzero x in GF(4) has
    x conj(x) = x^3 = 1, so the block v^T conj(v) depends only on the
    projective point of v, and a Hermitian form of rank r is a sum of r
    blocks of independent vectors; two distinct points are independent.
    So rank 0 is the zero Gram, rank 1 the (4^s - 1) / 3 point blocks, and
    rank 2 the XOR of two distinct point blocks.

    Constants of (s, rank), cached for the process, and built with no
    numpy call: a kernel at a new shape leaves buffers behind."""

    def pack(glo, ghi):
        g = t = 0
        for plane, first in ((glo, 0), (ghi, 1)):
            for i in range(s):
                g |= plane[i] >> i + first << t
                t += s - i - first
        return g

    # one block per projective point, shared by its scalar multiples
    mul = gf4.MUL.tolist()
    blocks = {}
    for v in product(range(4), repeat=s):
        if bytes(v) not in blocks:
            block = pack(*gf4._hermitian_gram_planes(
                [x & 1 for x in v], [x >> 1 for x in v]))
            for c in (1, 2, 3):
                blocks[bytes(mul[c][x] for x in v)] = block
    # the blocks of nonzero vectors: one per projective point
    points = set(blocks.values()) - {0}
    # at s = 1 the Gram packs into one bit, which still takes a byte
    ranked = bytearray(max(1, 1 << s * s >> 3))
    for g in ({0}, points, (a ^ b for a, b in combinations(points, 2)))[rank]:
        ranked[g >> 3] |= 1 << (g & 7)
    return blocks, pack([1 << i for i in range(s)], [0] * s), bytes(ranked)


class _ProjectiveGeometry:
    """Per-dimension tables for fast multiplicity-vector evaluation.

    Codeword weights of C_k(m) only depend on the projective class of the
    message, so weights are Z @ m for a fixed 0/1 incidence matrix Z; the
    Gram matrix is the XOR of the per-column rank-one Gram blocks with odd
    multiplicity.

    The DFS works on Python integers derived from these tables: a weight
    vector is packed into one int of `bits`-bit lanes (`pack`), and a Gram
    matrix as in `_gram_table(k, k - 1)`, which gives the blocks
    (`gram_bits`) and the bitmap of the hull-1 Grams (`hull_one`).
    `columns(bits)` packs the incidence and suffix columns once per lane
    width, and its `struct.Struct` reads a packed weight back as one Python
    int per lane: an `lru_cache` of at most the three lane widths, since
    like the instance that `_geometry` caches it is a constant of k alone.
    """

    def __init__(self, k):
        self.length = simplex_length(k)
        s = simplex_matrix(k)
        # Z[x, i] = 1 iff class-x messages are nonzero on column i
        self.incidence = (gf4.matmul(s.T, s) != 0).astype(np.int64)
        # the packed rank-one Hermitian Gram block h_i conj(h_i)^T per column
        blocks, _, self.hull_one = _gram_table(k, k - 1)
        self.gram_bits = [blocks[s[:, i].tobytes()] for i in range(self.length)]
        # incidence column suffix sums, for distance pruning
        self.suffix = np.zeros((self.length, self.length + 1), dtype=np.int64)
        self.suffix[:, :-1] = np.cumsum(self.incidence[:, ::-1], axis=1)[:, ::-1]
        # shared by every walk through the _geometry cache
        self.incidence.setflags(write=False)
        self.suffix.setflags(write=False)

    @lru_cache(maxsize=None)
    def columns(self, bits):
        """The incidence columns, the suffix columns and the all-ones
        vector, each packed into `bits`-bit lanes, and the `struct.Struct`
        that unpacks the lanes of such an int's `to_bytes`."""
        return (
            [self.pack(self.incidence[:, i], bits) for i in range(self.length)],
            [self.pack(self.suffix[:, i], bits) for i in range(self.length + 1)],
            self.pack([1] * self.length, bits),
            struct.Struct(f"<{self.length}{_LANE_CODES[bits]}"),
        )

    @staticmethod
    def pack(values, bits):
        """values[x] in lane x: bits [x * bits, (x + 1) * bits) of one int."""
        return sum(int(v) << (x * bits) for x, v in enumerate(values))


@lru_cache(maxsize=None)
def _geometry(k):
    return _ProjectiveGeometry(k)


def multiplicity_bounds(n, k, d):
    """Per-column multiplicity interval implied by minimum weight >= d.

    For k >= 2 the ceiling is a hyperplane count: (4^(k-1) - 1)/3 message
    classes vanish on column i, and 4^(k-2) of them are nonzero on each
    other column, so summing their weights gives
    (n - m_i) * 4^(k-2) >= (4^(k-1) - 1) * d / 3.
    """
    if k == 1:
        # single column: its multiplicity is the whole length
        return 0, n
    # 4d - 3n bounds k = 2 from below as well, but it changes that walk's
    # counts and was measured slower there
    lower = max(0, 4 * d - 3 * n) if k >= 3 else 0
    # an integer ceiling: in floats it goes wrong from d of about 2^50
    upper = n + -(4 ** (k - 1) - 1) * d // (3 * 4 ** (k - 2))
    return lower, min(upper, n)


def _enumerate_multiplicities(n, k, d, store=None):
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
    carries into the next, and is rounded up to 16, 32 or 64 (`_lane_bits`),
    so that one `to_bytes` and one `struct` unpack read a packed weight as
    Python ints.

    Each node the DFS reaches at cut = length - span is settled over the
    table of its remaining sum: every completion (m_cut..m_last), in the
    DFS's own value order, with its lane sums through last - 2 plus the
    maxed-out last two columns (the deepest prune), its lane sums through
    last, and its Gram parity XOR.  A table of R rows keeps, per class x,
    a dict from offset + need to one int, offset = upper * length and
    need = d - W_x for the prefix weight W_x: bit r is set when row r's
    deepest-prune sum reaches need, bit R + r when its whole sum does.  The
    node reads the needs of all classes at once, as the lanes of
    base - weights with base = offset + d in every lane (every W_x is at
    most n <= offset, and offset + d fits the lane, so no lane borrows or
    overflows), looks each class up and ANDs the ints, so bit r
    of the result says the vector passes the deepest prune in every class,
    which is the test for "examined", and bit R + r that all its weights
    reach d: the same per-class comparisons as on the weights themselves,
    only grouped by class.  The vectors examined are the popcount of the
    low half, up to and including the witness, which is the lowest row of
    the high half, in the DFS's order, whose Gram matrix, tested only then
    by one bit of the geometry's `hull_one`, has rank k - 1.  A whole sum
    never exceeds its deepest-prune sum, so every row meets a need at or
    below the class's least sum and none meets one above its largest: those
    entries are the shared all-ones int and 0, and the first need between
    the two builds the class's whole band of ints with one compare and one
    `packbits`.

    A table's rows are composed in numpy, not walked: the completions of a
    remaining sum from position p, `completions(p, remaining)`, are one
    int64 array, the concatenation over the values v of p, in the DFS's
    order, of v joined to the completions of remaining - v from p + 1, and
    the last column takes the rest.  Each array is kept in a memo of the
    walk, so the tables of one walk share their tails.  The lane sums are
    then matmuls of the incidence and the rows in the lane's own width
    (every partial sum of the non-negative terms is at most the whole, which
    the lane holds), and the Gram XORs one XOR-reduce over the odd columns.

    `span` is the largest value with width^span <= rows, width = upper -
    lower + 1, but at least 2 and at most length (`_table_span`).  A walk
    first takes rows = _TABLE_ROWS.  Once it has settled more than
    _SETTLE_LIMIT nodes it is a long walk, and, when the span for
    _RESTART_ROWS rows is larger, it restarts from scratch on that span:
    fewer, larger settles.  The restart cannot move a witness or a count:
    at every span the rows come in the DFS's own order and each vector gets
    the same per-class comparisons, so both spans visit the same vectors in
    the same order, and the restart only wastes the at most _SETTLE_LIMIT
    settles before it.  Short walks, among them every walk of the k = 3
    column to n = 25, never restart, and keep the small tables.

    The value orders and the tables with their lookups live in `store`, a
    private dict: the orders under (k, lower, upper), the tables under (k,
    lower, upper, bits, span), so every key holds its walk's bounds; the
    hull-1 bitmap depends on k alone, and is the geometry's.  The walks of
    one exhaustive column share the store; that column is the only caller
    that passes one.  A value order depends only on (k, lower, upper), its
    position and the remaining sum, so both spans of a restart share it; a
    table's rows, its lane sums and its Gram XORs only on (k, lower, upper,
    span), from which cut follows, and the remaining sum at cut; and a
    lookup entry only on the sums and the need, never on n or d.  So a
    table and its lookups serve every walk with the same key, whatever its
    n and d, and so does offset.  offset is kept small rather than
    2^(bits-1), so that in most walks the keys are among the ints Python
    caches, which a settle neither allocates nor compares by value.
    The sums, and the needs they are compared with, are kept in the lane's
    own width (int16, int32 or int64), which also makes the compare of a
    band a narrow one: a deepest-prune sum is at most 3n, which the lane
    holds by construction.  With no store the walk makes its own, which is
    freed on return, as is the memo of completions.

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
    if store is None:
        store = {}
    gram_bits, hull_one = geo.gram_bits, geo.hull_one
    last = length - 1
    if last == 0:
        # k = 1: the single column takes all of n, which the checks above
        # put inside [lower, upper], so this one vector is the only leaf
        gram = gram_bits[0] if n % 2 else 0
        hit = n >= d and hull_one[gram >> 3] >> (gram & 7) & 1
        return ((n,) if hit else None), 1

    # the checks above leave d <= n: a larger d puts upper below 0
    bits = _lane_bits(n, length)
    inc, suffix, ones, lanes = geo.columns(bits)
    high = ones << (bits - 1)
    bias = high - d * ones
    # lane x of base - weights is offset + d - W_x, the key of class x's need
    offset = upper * length
    base = (offset + d) * ones
    unpack = lanes.unpack
    size = lanes.size
    # (pos, remaining) -> value order, lo and hi following from both
    orders = store.setdefault((k, lower, upper), {})
    memo = {}  # (pos, remaining) -> completions(pos, remaining)
    m = [0] * length  # recurse sets m[:cut]

    def values(pos, remaining):
        order = orders.get((pos, remaining))
        if order is None:
            # feasibility of the remaining sum
            lo = max(lower, remaining - upper * (last - pos))
            hi = min(upper, remaining - lower * (last - pos))
            # try the value closest to the running mean first: witnesses
            # sit near balanced multiplicities, so they surface much earlier.
            # In ints: a float mean merges neighbours from n of about 2^50
            places = length - pos
            order = sorted(range(lo, hi + 1),
                           key=lambda x: (abs(x * places - remaining), x))
            orders[pos, remaining] = order
        return order

    def completions(pos, remaining):
        # every completion (m_pos..m_last), in DFS order; see the docstring
        found = memo.get((pos, remaining))
        if found is None:
            order = values(pos, remaining)
            if pos == last - 1:
                # the last column takes the rest
                found = np.array([(v, remaining - v) for v in order], dtype=np.int64)
            else:
                tails = [completions(pos + 1, remaining - v) for v in order]
                counts = [len(tail) for tail in tails]
                found = np.empty((sum(counts), length - pos), dtype=np.int64)
                found[:, 0] = np.repeat(order, counts)
                np.concatenate(tails, out=found[:, 1:])
            memo[pos, remaining] = found
        return found

    def walk(span, limit):
        # the walk over tables of `span` columns; past `limit` settles (None
        # for no limit) it raises _Restart
        cut = length - span
        # weights + prune[pos] has every top bit set iff a maxed-out suffix
        # from pos on can still lift every weight to d
        prune = [upper * col + bias for col in suffix[: cut + 1]]
        # remaining at cut -> table(remaining)
        tables = store.setdefault((k, lower, upper, bits, span), {})
        lane = np.dtype(f"int{bits}")
        incidence = geo.incidence[:, cut:].astype(lane)
        ceiling = (upper * geo.suffix[:, last - 1: last]).astype(lane)
        blocks = np.array(gram_bits[cut:], dtype=np.int64)
        examined = 0
        witness = None
        settled = 0

        def table(remaining):
            # the completions in DFS order, their number R, the Gram parity
            # XOR of each row and one lookup per class; then, for look_up,
            # the bitset with all 2R bits set and per class x and row r the
            # lane sums through last - 2 with the maxed-out last two columns
            # (the deepest prune) at r, the weights of the whole completion
            # at R + r, in the lane's width, and the least and largest sum
            rows = completions(cut, remaining)
            count = len(rows)
            columns = rows.T.astype(lane)
            sums = np.empty((length, 2 * count), dtype=lane)
            np.matmul(incidence[:, :-2], columns[:-2], out=sums[:, count:])
            np.add(sums[:, count:], ceiling, out=sums[:, :count])
            sums[:, count:] += incidence[:, -2:] @ columns[-2:]
            grams = np.bitwise_xor.reduce((rows & 1) * blocks, axis=1)
            band = ((1 << 2 * count) - 1, sums, sums.min(axis=1).tolist(),
                    sums.max(axis=1).tolist())
            return rows, count, grams.tolist(), [{} for _ in range(length)], band

        def look_up(look, band, x, key):
            # fill class x's lookup at key = offset + need; see the docstring
            full, sums, least, most = band
            need = key - offset
            if need <= least[x]:
                look[key] = full
            elif need > most[x]:
                look[key] = 0
            else:
                needs = np.arange(least[x] + 1, most[x] + 1, dtype=sums.dtype)
                packed = np.packbits(sums[x] >= needs[:, None], axis=1, bitorder="little")
                for need, row in zip(needs.tolist(), packed):
                    look[offset + need] = int.from_bytes(row.tobytes(), "little")

        def settle(remaining, weights, gram):
            nonlocal examined, witness, settled
            settled += 1
            if limit is not None and settled > limit:
                raise _Restart
            found = tables.get(remaining)
            if found is None:
                found = tables[remaining] = table(remaining)
            rows, count, grams, looks, band = found
            keys = unpack((base - weights).to_bytes(size, "little"))
            try:
                hits = reduce(and_, map(getitem, looks, keys))
            except KeyError:
                for x, key in enumerate(keys):
                    if key not in looks[x]:
                        look_up(looks[x], band, x, key)
                hits = reduce(and_, map(getitem, looks, keys))
            # the rows that pass the deepest prune are the low R bits, and
            # the rows whose whole completion reaches d the high R bits
            reached = hits >> count
            while reached:
                low = reached & -reached
                r = low.bit_length() - 1
                g = gram ^ grams[r]
                if hull_one[g >> 3] >> (g & 7) & 1:
                    examined += (hits & (2 * low - 1)).bit_count()
                    witness = tuple(m[:cut] + rows[r].tolist())
                    return
                reached ^= low
            examined += (hits & ((1 << count) - 1)).bit_count()

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
            # the recursive closure holds itself; breaking the cycle frees
            # its tables now instead of at the next cyclic garbage collection
            recurse = None
        return witness, examined

    # a walk that settles more than _SETTLE_LIMIT nodes on tables of at most
    # _TABLE_ROWS rows restarts on tables of at most _RESTART_ROWS
    width = upper - lower + 1
    first = _table_span(width, length, _TABLE_ROWS)
    large = _table_span(width, length, _RESTART_ROWS)
    try:
        if large > first:
            try:
                return walk(first, _SETTLE_LIMIT)
            except _Restart:
                pass
        return walk(large, None)
    finally:
        # completions holds itself too, and with it the memo
        completions = None


def _lane_bits(n, length):
    """The width of the weight lanes of a walk at length n over `length`
    columns, for any d <= n: 16, 32 or 64 bits, so that no lane, even with
    the maxed-out suffix and the bias added, carries into the next.  A lane
    of more than 64 bits raises UnsupportedError."""
    fit = (n * (length + 2)).bit_length() + 1
    bits = next((b for b in _LANE_CODES if b >= fit), None)
    if bits is None:
        raise UnsupportedError(f"n={n} is too large for 64-bit weight lanes")
    return bits


def _table_span(width, length, rows):
    """The columns of a settle table of at most `rows` rows: the largest
    span with width**span <= rows, but at least 2 and at most length."""
    span = 2
    while span < length and width ** (span + 1) <= rows:
        span += 1
    return span


class _Restart(Exception):
    """A walk passed its settle limit; it restarts on larger tables."""


def _drop_tables(store, least_upper):
    """Remove from `store` the value orders and tables of every key whose
    upper multiplicity bound is below least_upper."""
    for key in [key for key in store if key[2] < least_upper]:
        del store[key]


def _verified(code, d, exact):
    """The distance of the witness `code`, re-checked on the numpy path
    (`hull.hull_dim` over `gf4.hermitian_gram`, and the weights of the
    code): it must be hull-1 and have distance d, or at least d when not
    `exact`, as for `certify_nonexistence`.  Explicit raises, so the check
    survives `python -O`."""
    dim = hull_dim(code)
    if dim != 1:
        raise AssertionError(f"witness has hull dimension {dim}")
    actual = code.min_distance()
    if actual < d or exact and actual != d:
        raise AssertionError(f"witness has distance {actual}, search reported {d}")
    return actual


def exhaustive_dh(n, k):
    """Exact largest hull-1 distance for k in {1, 2, 3}.

    Every code without a zero column is equivalent to one whose generator
    columns are simplex columns with multiplicities m_i, so a walk over the
    vectors m is complete on that class; a code with a zero column (dual
    distance 1) is covered by the result at length n - 1.  At each length,
    scans d downward from the Griesmer bound to one above
    the best distance at the length before; the first d with a
    multiplicity-vector witness is exact, and with none the zero-column
    lift of the shorter witness keeps that best.  `explored` is cumulative
    over the lengths k..n, and `shorter` links the outcome at n - 1, so one
    call yields the whole column.

    The Griesmer bound alone sets the top: at k <= 3 sphere packing never
    binds below it.  For k = 3, 2, 1, d = griesmer_max_d(n, k) is at most
    16n/21, 4n/5 or n, so the packing radius r = (d - 1) // 2 is below
    8n/21, 2n/5 or n/2.  The volume bound V(n, r) <= 4^(n H_4(r/n)), with
    H_4 below 0.782, 0.803 or 0.897 there, gives 4^k V <= 4^n from n = 14
    on.  The volume never shrinks as d grows, and d <= n - k + 1, so
    `sphere_packing_max_d` reaches that d.  `tests/test_bounds.py` checks
    the same for every n <= 400.

    One loop solves the lengths k..n bottom-up, each from the outcome at
    the length before, so the call depth stays flat for any n.  Every walk
    of the call shares one store of value orders and settle tables (see
    `_enumerate_multiplicities`), which is freed on return: nothing but the
    returned chain of outcomes and the geometry's constants of k outlives
    the call, and a second call solves the column again.  Before each
    length the store drops the tables that no later walk can read, so that
    a long column keeps only the tables of the upper bounds still
    reachable, not every table it built.

    The re-check of a walk's witness is exact: the walk at d + 1 of the
    same length found none, or d is the Griesmer bound, so a witness of
    distance other than d is a fault of the walk.

    A walk's lane width follows from its length alone (`_lane_bits`), so a
    column too long for 64-bit lanes at n raises the walk's
    UnsupportedError before the first walk, not after walking every
    shorter length; k = 1 has no lanes.
    """
    if k not in (1, 2, 3):
        raise UnsupportedError("exhaustive search supports k <= 3 only")
    if n < k:
        raise ValueError("need n >= k")
    if k > 1:
        _lane_bits(n, simplex_length(k))
    store = {}
    outcome = None
    for length in range(k, n + 1):
        shorter_best_d = outcome.best_d if outcome else 0
        explored = outcome.explored if outcome else 0
        # every walk from here on has d > shorter_best_d, so by the Griesmer
        # bound an upper bound of at least ceil(d / 4^(k-1)): the tables
        # below that are never read again
        _drop_tables(store, -(-(shorter_best_d + 1) // 4 ** (k - 1)))
        for d in range(griesmer_max_d(length, k), shorter_best_d, -1):
            m, examined = _enumerate_multiplicities(length, k, d, store)
            explored += examined
            if m is not None:
                witness = code_from_multiplicity(MultiplicityVector(k, m))
                best_d = _verified(witness, d, exact=True)
                break
        else:
            # no walk found one: the zero-column lift of the shorter witness
            best_d = shorter_best_d
            witness = _pad(outcome.witness, length) if shorter_best_d else None
        outcome = SearchOutcome(best_d, witness, exhaustive=True, explored=explored,
                                shorter=outcome)
    return outcome


def _pad(code, n):
    """code with zero columns appended up to length n; they keep the RREF."""
    return LinearCode(np.hstack([code.generator,
                                 np.zeros((code.k, n - code.n), dtype=np.uint8)]))


def certify_nonexistence(n, k, d):
    """Exhaust the pruned multiplicity space (and the zero-column recursion)
    for an [n, k, >=d] hull-1 code; returns a certificate or a witness.

    The walk at each of the lengths n, n - 1, ... makes its own store: over
    every certificate with k <= 3, n <= 26 and d up to the Griesmer bound,
    none read a table built at another length, so a shared store would
    share no table, and the hull-1 bitmap is the geometry's, cached for the
    process.  A d < 1 raises the walk's ValueError."""
    if k not in (1, 2, 3):
        raise UnsupportedError("certification supports k <= 3 only")
    examined = 0
    length_n = n
    while length_n >= k and griesmer_max_d(length_n, k) >= d:
        m, count = _enumerate_multiplicities(length_n, k, d)
        examined += count
        if m is not None:
            code = code_from_multiplicity(MultiplicityVector(k, m))
            _verified(code, d, exact=False)
            return CounterexampleFound(n, k, d, _pad(code, n))
        length_n -= 1
    bounds = multiplicity_bounds(n, k, d) if griesmer_max_d(n, k) >= d else None
    return NonexistenceCertificate(n, k, d, bounds, examined)


# -- randomized search -----------------------------------------------------


# bytes of 0/1 at bits 8t, t = 0..7, times _GATHER puts bit t of the result
# at bit 56 + t; every partial product lands on its own bit, so nothing carries
_GATHER = 0x0102040810204080
_LOW_BITS = 0x0101010101010101
# most candidates per call of the light screen, and most k * k * ceil(m / 8)
# bytes of row pairs over a call's candidates, which bounds its
# temporaries; both keep the process's peak memory small
_SLICE = 256
_SLICE_BYTES = 1 << 17
# the popcount of every byte, for the light screen: numpy's uint8 popcount
# loop would run for it alone, and paging its code in costs 128 KiB of
# peak memory.  Built in Python: a numpy loop run at import would page code
# in for every command
_POPCOUNT = np.frombuffer(bytes(bin(b).count("1") for b in range(256)),
                          dtype=np.uint8)


def _gather(raw):
    """The 1-bit and the w-bit planes of the symbols held one per byte in
    the bytes raw, symbol t at bit t, gathered 8 symbols at a time."""
    lo = hi = 0
    for t in range(0, len(raw), 8):
        w = int.from_bytes(raw[t: t + 8], "little")
        lo |= ((w & _LOW_BITS) * _GATHER >> 56 & 255) << t
        hi |= ((w >> 1 & _LOW_BITS) * _GATHER >> 56 & 255) << t
    return lo, hi


def _symbol_planes(raw, k, m):
    """Row planes of [I | a] for the k x m symbols a held one per byte, row
    after row, in the bytes raw; as `gf4._row_planes` builds them but with
    no numpy call: at candidate size its packbits costs as much as the hull
    test."""
    # the planes of all of a, row after row
    lo, hi = _gather(raw)
    mask = (1 << m) - 1
    return (
        [1 << i | (lo >> (i * m) & mask) << k for i in range(k)],
        [(hi >> (i * m) & mask) << k for i in range(k)],
    )


def _systematic_planes(a):
    """Row planes of [I | a] for a uint8 array a."""
    return _symbol_planes(a.tobytes(), *a.shape)


def _planes_hull_dim(lo, hi):
    return len(lo) - len(gf4._eliminate(*gf4._hermitian_gram_planes(lo, hi)))


def _lift_pivot(raw, m):
    """The first hull pivot p of [I | b] when its hull has dimension 2, None
    otherwise, for the matrix b of m columns whose symbols, row after row,
    are the bytes raw.  Shortened on p, [I | b] becomes [I | b without row
    p], because row p is its only row that is nonzero at p.

    [I | b] and [I | b^T] have hulls of equal dimension: C and its Hermitian
    dual [conj(b)^T | I] share their hull, and conjugation keeps the rank
    of the Gram.  So the hull test runs on the smaller Gram, of side
    s = min(m, k + 1): I + b^T conj(b) of the columns when b has fewer
    columns than rows, else I + b conj(b)^T of the rows.  The row-side
    Gram, which names p, is built only for a lift that passes.

    For s <= 4 the test is one lookup in `_gram_table(s, s - 2)`.  The
    Gram is I plus one rank-one block v^T conj(v) per vector v along the
    longer side: the rows raw[t*m:(t+1)*m] of b on the column side, its
    columns raw[c::m] on the row side.  Packed, it is the packed identity
    XOR the blocks looked up by the bytes of v, and one bit of the table's
    bitmap says whether it has rank s - 2.  A 1 x 1 Gram has nullity at
    most 1, so s = 1 never has hull 2.

    For s >= 5 the Gram is ranked by `gf4._eliminate`.  On the column side
    it is built straight from the bytes: column c of b is every m-th byte
    of raw from c on, whose planes (`_gather`) give the Gram of the
    columns, and the I block adds 1 on its diagonal.
    """
    k1 = len(raw) // m
    s = min(m, k1)
    if s == 1:
        return None
    if s <= 4:
        blocks, gram, ranked = _gram_table(s, s - 2)
        if m < k1:
            for t in range(0, len(raw), m):
                gram ^= blocks[raw[t: t + m]]
        else:
            for c in range(m):
                gram ^= blocks[raw[c::m]]
        if not ranked[gram >> 3] >> (gram & 7) & 1:
            return None
    elif m < k1:
        lo, hi = [], []
        for c in range(m):
            x, y = _gather(raw[c::m])
            lo.append(x)
            hi.append(y)
        glo, ghi = gf4._hermitian_gram_planes(lo, hi)
        for c in range(m):
            glo[c] ^= 1 << c
        if m - len(gf4._eliminate(glo, ghi)) != 2:
            return None
    glo, ghi = gf4._hermitian_gram_planes(*_symbol_planes(raw, k1, m))
    if len(glo) - len(gf4._eliminate(glo, ghi)) != 2:
        return None
    # hull vectors are conj(u) . [I | b] for u in the Gram kernel, so p is
    # the least c on which some kernel vector is nonzero: the least c whose
    # unit vector is outside the Gram's row space, and in RREF a unit
    # vector is in the row space exactly when it is a row
    rows = set(zip(glo, ghi))
    return next(c for c in range(k1) if (1 << c, 0) not in rows)


# the symbol of each byte of a uint8 draw in 0..3: 8-bit Lemire with bound 4,
# which never rejects, maps a byte b to b >> 6
_TOP_BITS = b"\x00" * 64 + b"\x01" * 64 + b"\x02" * 64 + b"\x03" * 64


class _Draws:
    """The draws of a `np.random.Generator`, decoded from the raw 64-bit
    outputs of its bit generator the way numpy 2.x `Generator.integers`
    consumes them, so that a chunk takes one `random_raw` call instead of
    one `integers` call per draw.

    `integers` reads 32-bit words: the low half of each 64-bit output, then
    the high half.  `bounded(K)` is `int(rng.integers(K))`: 32-bit Lemire
    on one word x, giving x * K >> 32, except that a word with
    x * K mod 2^32 < 2^32 mod K is rejected and the next one is used; K = 1
    takes no word.  `symbols(N)` is the bytes of
    `rng.integers(0, 4, size=N, dtype=np.uint8)`: each call starts a fresh
    run of ceil(N / 4) words, read as little-endian bytes, and a byte b
    gives b >> 6.  Each buffer is translated to symbols once, when it is
    fetched, so `symbols` is one slice.  The first `random_raw` call
    fetches `words` words; a draw that runs past the buffer extends it, and
    its symbols, with the next outputs.
    """

    def __init__(self, bit_generator, words):
        self._bit_generator = bit_generator
        self._raw = b""  # the words drawn so far, little-endian
        self._symbols = b""  # the symbol of each byte of _raw
        self._pos = 0  # byte offset of the next unused word
        self._extend(words)

    def _extend(self, words):
        more = self._bit_generator.random_raw(-(-words // 2)).astype(
            "<u8", copy=False).tobytes()
        self._raw += more
        self._symbols += more.translate(_TOP_BITS)

    def bounded(self, bound):
        if bound == 1:
            return 0
        threshold = (1 << 32) % bound
        while True:
            s = self._pos
            if s + 4 > len(self._raw):
                self._extend(1)
            self._pos = s + 4
            x = int.from_bytes(self._raw[s: s + 4], "little") * bound
            if x & 0xFFFFFFFF >= threshold:
                return x >> 32

    def symbols(self, count):
        s = self._pos
        self._pos = s + 4 * -(-count // 4)
        if self._pos > len(self._raw):
            self._extend((self._pos - len(self._raw)) // 4)
        return self._symbols[s: s + count]


def _chunk_words(k, m, size):
    """The words one chunk of `size` candidates draws when no draw rejects a
    word and every lift fails: a fresh A at j % 3 == 0, three scalar draws
    at 1, and a lift and a fresh A at 2."""
    fresh, lift = -(-k * m // 4), -(-(k + 1) * m // 4)
    return -(-size // 3) * fresh + (size + 1) // 3 * 3 + size // 3 * (lift + fresh)


def _chunk_candidates(bit_generator, k, m, size, below=None):
    """The A of the `size` candidates [I | A] of one chunk, drawn from the
    chunk's bit generator, as an (S, k, m) uint8 array in chunk order: all
    of them, or with `below` only those whose bytes are below it.
    Candidate j is a fresh A when j % 3 == 0; at 1 the fresh A just before
    it with one entry set, whose value is drawn first, then its row and its
    column; at 2 the lift [I | b] with k + 1 rows shortened on its first
    hull pivot p, which is b without row p, or a fresh A when the lift's
    hull is not 2-dimensional.  Every candidate is drawn, kept or not: a
    lift's outcome decides where the draws after it start."""
    draws = _Draws(bit_generator, _chunk_words(k, m, size))
    step = k * m
    out = bytearray(size * step)
    at = 0  # each candidate is written at `at`, which moves on if it is kept
    for j in range(size):
        mode = j % 3
        if mode == 1:
            value = draws.bounded(4)
            row = draws.bounded(k)
            out[at: at + step] = fresh
            out[at + row * m + draws.bounded(m)] = value
        else:
            p = None
            if mode == 2:
                b = draws.symbols(step + m)
                p = _lift_pivot(b, m)
            if p is None:
                fresh = draws.symbols(step)
                out[at: at + step] = fresh
            else:
                out[at: at + step] = b[: p * m] + b[(p + 1) * m:]
        if below is None or out[at: at + step] < below:
            at += step
    return np.frombuffer(out, dtype=np.uint8, count=at).reshape(-1, k, m)


def _stack_light(stack):
    """For each A of a (S, k, m) stack of symbols, the least weight of a
    row of [I | A], 1 + wt(a_y), and of a sum y + c x of two of its rows,
    2 + wt(a_y + c a_x) for c in {1, w, w^2}: a list.

    It bounds the distance of [I | A] from above, and for bound <= 3 it
    also decides d < bound: a codeword of weight <= 2 has at most two
    nonzero message symbols, so it is a multiple of a row or of some
    y + c x.
    """
    # the 1-bit and the w-bit planes of the rows, column j at bit j % 8 of
    # byte j // 8
    lo, hi = np.packbits(stack & gf4._PLANE_MASKS[..., None], axis=-1,
                         bitorder="little")
    k = lo.shape[1]
    x = [i for j in range(k) for i in range(j)]
    y = [j for j in range(k) for i in range(j)]
    # c x has the planes (x0, x1), (x1, x0 ^ x1) and (x0 ^ x1, x0)
    x0, x1, y0, y1 = lo[:, x], hi[:, x], lo[:, y], hi[:, y]
    x2 = x0 ^ x1
    words = np.concatenate([lo | hi, (y0 ^ x0) | (y1 ^ x1),
                            (y0 ^ x1) | (y1 ^ x2), (y0 ^ x2) | (y1 ^ x0)],
                           axis=1)
    # the I block adds 1 to a row's weight and 2 to a sum's
    offsets = np.array([1] * k + [2] * (3 * len(x)), dtype=np.uint32)
    weights = _POPCOUNT[words].sum(axis=-1, dtype=np.uint32) + offsets
    return [min(w.tolist()) for w in weights]


def _screen(stack):
    """The light weight (`_stack_light`) of every candidate of a chunk's
    (S, k, m) stack, in chunk order: a list of ints.  The kernel runs on
    slices of the same number of candidates, at most _SLICE and
    _SLICE_BYTES.  A short last slice is filled up with zero A, whose
    weights are dropped: numpy keeps buffers of every shape its kernels
    have run on, so a slice of a new size would leave some behind (about
    16 KB of peak memory each)."""
    size, k, m = stack.shape
    step = max(1, min(_SLICE, _SLICE_BYTES // (k * k * -(-m // 8))))
    light = []
    for s in range(0, size, step):
        part = stack[s: s + step]
        if len(part) < step:
            part = np.zeros((step, k, m), dtype=np.uint8)
            part[: size - s] = stack[s:]
        light += _stack_light(part)[: size - s]
    return light


def random_search(n, k, target_d, seed, budget):
    """Seeded randomized search for an [n, k] hull-1 code of distance
    >= target_d.

    One pass over the budget: fresh samples [I | A], single-entry mutations
    of the last [I | A] drawn, and hull-2 shorten moves from length n + 1,
    in turn.  Every _RANDOM_CHUNK candidates it starts a new RNG stream,
    seeded with (seed, chunk index), so the same (seed, budget) always
    gives the same outcome.  The largest distance wins, ties going to the
    lexicographically least generator.  Every generator shares the I
    block, so comparing the bytes of A compares the generators, and the
    rule reads: a candidate whose A is not below the best's must beat the
    best strictly.

    A chunk is handled in three steps.  `_chunk_candidates` draws it.  When
    the chunk starts with the best at the ceiling, no candidate can beat
    the best strictly, and since the best's A only falls, the walk keeps
    only the candidates whose A is below the best's at the start.
    `_screen` then gives each kept candidate its light weight, in numpy.
    Last, in chunk order, a candidate whose light weight reaches what the
    rule needs, with that need within the ceiling, gets the hull-1 test on
    its packed planes (`_planes_hull_dim`), and a hull-1 one its weights
    (`_plane_weights`), so the tests run on exactly the candidates that
    could still win, and no candidate builds a `LinearCode`.  No screen
    changes a draw or the outcome.
    """
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    if k > DEFAULT_ENUM_CAP:
        raise UnsupportedError(f"k={k} exceeds the distance cap {DEFAULT_ENUM_CAP}")
    m = n - k
    # no [n, k] code has a larger distance; unlike at k <= 3, sphere
    # packing can bind here (at [6, 4] it allows 2, Griesmer 3)
    ceiling = min(griesmer_max_d(n, k), sphere_packing_max_d(n, k))
    best_d, best = 0, None  # best: the bytes of A in the best hull-1 [I | A]
    for start in range(0, budget, _RANDOM_CHUNK):
        size = min(_RANDOM_CHUNK, budget - start)
        rng = np.random.default_rng([seed, start // _RANDOM_CHUNK])
        stack = _chunk_candidates(rng.bit_generator, k, m, size,
                                  best if best_d >= ceiling else None)
        for i, weight in enumerate(_screen(stack)):
            # need >= best_d below: this only skips the copy of A
            if weight < best_d:
                continue
            a = stack[i].tobytes()
            need = best_d + 1 if best is not None and a >= best else best_d
            if weight < need or need > ceiling:
                continue
            planes = _symbol_planes(a, k, m)
            if _planes_hull_dim(*planes) != 1:
                continue
            counts = _plane_weights(*planes, n)
            d = int(np.flatnonzero(counts[1:])[0]) + 1
            if d >= need:
                best_d, best = d, a
    if best is None:
        return SearchOutcome(0, None, exhaustive=False, explored=budget)
    # a fresh object: nothing the loop computed is reused
    a = np.frombuffer(best, dtype=np.uint8).reshape(k, m)
    code = LinearCode(np.hstack([np.eye(k, dtype=np.uint8), a]))
    _verified(code, best_d, exact=True)
    return SearchOutcome(best_d, code if best_d >= target_d else None,
                         exhaustive=False, explored=budget)

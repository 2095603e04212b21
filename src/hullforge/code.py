"""The [n,k,d] quaternary linear code abstraction.

Weight data come from one exhaustive codeword enumeration per code, on the
side whose dimension is within the one enumeration cap DEFAULT_ENUM_CAP =
14, which no caller sets: the code itself when k <= 14, else its Hermitian
dual when n - k <= 14, else BudgetExceededError.  Above one block
(k > _BLOCK_K) the smaller side is enumerated: the dual when n - k < k, so
a high-rate code costs 4^(n - k) words, not 4^k.  The other side
follows from the exact MacWilliams transform (`macwilliams`); the Hermitian
dual is the conjugate of the Euclidean dual, so both duals have the same
weights.  They depend on the generator alone, so a code keeps them once
computed.  Generators are uint8 arrays holding one symbol per byte, kept in
RREF so equality checks and serialization are deterministic; column order is
never changed.  One step turns rows into a code, `_row_space`: the RREF
without its zero rows, the zero code when none is left; `from_generator`,
`hermitian_dual`, `puncture` and `shorten` all end in it.  The enumeration
takes the rows as two bit planes of Python ints (`gf4._row_planes`),
spreads their multiples over uint64 words and takes each weight as
popcount(p0 | p1), visiting one message per scalar class
{c * x : c in GF(4)*} outside the expanded block (c * x has the weight of
x); the randomized search feeds its packed candidates to the same routine
(`_plane_weights`).  The block is 4^7 words, small enough that a pass over
it works in a core's L2 cache instead of streaming through memory
(`_BLOCK_K`).
"""

import numpy as np

from . import gf4
from .exceptions import (
    AllCoordinatesError,
    BudgetExceededError,
    InvalidWeightsError,
    ZeroMatrixError,
)

DEFAULT_ENUM_CAP = 14

# rows expanded into one packed block of 4^_BLOCK_K words during enumeration;
# the s = k - _BLOCK_K others are looped over as prefixes, one per scalar
# class (1 + (4^s - 1) / 3 iterations).  At 7 the working set of one pass
# over 64 columns (two 128 KiB block planes, the 256 KiB XOR pair and the
# weights) fits in a 2 MiB L2 cache; 9 streamed about 12 MiB per pass.  A
# sweep over 6..9 (CHANGES.md) found 7 fastest at k = 11 and 14 and level
# with 8 at k = 12; 6 pays the per-pass overhead four times as often.
_BLOCK_K = 7

_WORD = (1 << 64) - 1


class WeightDistribution:
    """Counts A_w of codewords of each Hamming weight w = 0..n."""

    def __init__(self, counts):
        self.counts = tuple(int(c) for c in counts)

    def __getitem__(self, w):
        return self.counts[w]

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        return isinstance(other, WeightDistribution) and self.counts == other.counts

    def total(self):
        return sum(self.counts)

    def min_nonzero_weight(self):
        for w, c in enumerate(self.counts):
            if w > 0 and c > 0:
                return w
        return None

    def __repr__(self):
        nz = {w: c for w, c in enumerate(self.counts) if c}
        return f"WeightDistribution({nz})"


class LinearCode:
    """An [n, k] code over GF(4), fixed by a full-row-rank generator in RREF."""

    def __init__(self, generator):
        # a private copy: freezing it leaves the caller's array writable
        self.generator = np.array(generator, dtype=np.uint8)
        self.generator.setflags(write=False)
        self.k, self.n = self.generator.shape
        self._weights = None
        self._dual_weights = None

    @classmethod
    def from_generator(cls, g):
        """Build a code from any generator matrix; dependent rows are dropped."""
        code = _row_space(gf4.as_matrix(g))
        if code.k == 0:
            raise ZeroMatrixError("generator matrix has rank 0")
        return code

    # -- weight data -------------------------------------------------------

    def weight_distribution(self):
        """A_0..A_n, enumerated when k <= DEFAULT_ENUM_CAP, else transformed
        from the enumerated Hermitian dual; also from the dual when it is
        the smaller side (n - k < k) and k exceeds one block (_BLOCK_K),
        where building the dual costs less than the passes it saves.
        BudgetExceededError, raised before any dual is built, when both k
        and n - k exceed DEFAULT_ENUM_CAP."""
        if self._weights is None:
            dual_side = self.k > DEFAULT_ENUM_CAP or (
                self.k > _BLOCK_K and self.n - self.k < self.k)
            if not dual_side:
                self._weights = WeightDistribution(self._count_weights())
            elif self.n - self.k <= DEFAULT_ENUM_CAP:
                self._dual_weights = self.hermitian_dual().weight_distribution()
                self._weights = macwilliams(self._dual_weights.counts,
                                            self.n - self.k)
            else:
                raise BudgetExceededError(
                    f"k={self.k} and n-k={self.n - self.k} both exceed the "
                    f"enumeration cap {DEFAULT_ENUM_CAP}"
                )
        return self._weights

    def dual_weight_distribution(self):
        """B_0..B_n of the Hermitian dual, from the same single enumeration
        as weight_distribution(), and BudgetExceededError where it raises;
        B = (1, 0, ..., 0) when k = n."""
        if self._dual_weights is None:
            self._dual_weights = macwilliams(self.weight_distribution().counts,
                                             self.k)
        return self._dual_weights

    def min_distance(self):
        """The least nonzero weight of weight_distribution(), with its
        BudgetExceededError; ZeroMatrixError for the zero code."""
        if self.k == 0:
            raise ZeroMatrixError("the zero code has no minimum distance")
        return self.weight_distribution().min_nonzero_weight()

    def _count_weights(self):
        return _plane_weights(*gf4._row_planes(self.generator), self.n)

    def codewords(self):
        """All 4^k codewords as a (4^k, n) array (k <= DEFAULT_ENUM_CAP)."""
        if self.k > DEFAULT_ENUM_CAP:
            raise BudgetExceededError(
                f"k={self.k} exceeds the enumeration cap {DEFAULT_ENUM_CAP}"
            )
        return _span(self.generator, self.n)

    # -- duality and coordinate operations ---------------------------------

    def hermitian_dual(self):
        """The [n, n-k] Hermitian dual; the zero code when k = n."""
        return _row_space(gf4.CONJ[gf4.kernel(self.generator)])

    def puncture(self, coords):
        """Delete the given (0-based) coordinates from every codeword."""
        coords = _check_coords(coords, self.n)
        keep = [c for c in range(self.n) if c not in coords]
        return _row_space(self.generator[:, keep])

    def shorten(self, coords):
        """The subcode vanishing on the given coordinates, punctured there.

        Solved through linear constraints on the message space, so it works
        for any k.
        """
        coords = _check_coords(coords, self.n)
        sel = self.generator[:, sorted(coords)]
        msgs = gf4.kernel(sel.T)  # x with x . G_S = 0
        keep = [c for c in range(self.n) if c not in coords]
        return _row_space(gf4.matmul(msgs, self.generator)[:, keep])

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.n == other.n
            and self.k == other.k
            and np.array_equal(self.generator, other.generator)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.generator.tobytes()))

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k})"


def macwilliams(counts, k):
    """The weight distribution B_0..B_n of the dual of an [n, k] code whose
    weight counts are A_0..A_n:

        sum_j B_j z^j = 4^-k sum_i A_i (1 - z)^i (1 + 3z)^(n - i),

    in exact integers.  Raises InvalidWeightsError when the result is no
    weight distribution: a fraction, a negative count or B_0 != 1."""
    counts = [int(c) for c in counts]
    n = len(counts) - 1
    # homogeneous Horner on x = 1 - z, y = 1 + 3z:
    # acc = sum_{i >= m} A_i x^(i - m) y^(n - i), ypow = y^(n - m)
    acc = [counts[n]] + [0] * n
    ypow = [1] + [0] * n
    for m in range(n - 1, -1, -1):
        acc = [a - b for a, b in zip(acc, [0] + acc[:-1])]
        ypow = [a + 3 * b for a, b in zip(ypow, [0] + ypow[:-1])]
        if counts[m]:
            acc = [a + counts[m] * y for a, y in zip(acc, ypow)]
    size = 4 ** k
    dual = []
    for j, c in enumerate(acc):
        b, rest = divmod(c, size)
        if rest:
            raise InvalidWeightsError(
                f"MacWilliams coefficient {j} is not divisible by 4^{k}")
        if b < 0:
            raise InvalidWeightsError(f"MacWilliams coefficient {j} is negative")
        dual.append(b)
    if dual[0] != 1:
        raise InvalidWeightsError(f"MacWilliams transform has B_0 = {dual[0]}")
    return WeightDistribution(dual)


def _span(rows, n):
    """All 4^r GF(4) combinations of the r given rows as a (4^r, n) array;
    the coefficient of the last row varies fastest."""
    words = np.zeros((1, n), dtype=np.uint8)
    for row in rows:
        scaled = gf4.MUL[:, row]  # (4, n): 0, row, w*row, W*row
        words = (words[:, None, :] ^ scaled[None, :, :]).reshape(-1, n)
    return words


def _plane_weights(lo, hi, n):
    """Weight counts A_0..A_n of the span of r >= 0 rows given as row planes
    (lo, hi), with column j at bit j as in `gf4._row_planes`.

    The last min(r, _BLOCK_K) rows span one packed block; the first s rows
    form the prefixes p added to it.  Scaling a message by c != 0 scales its
    codeword and keeps the weight, and each message with p != 0 is c times
    exactly one message whose prefix has leading nonzero coefficient 1, so
    only those prefixes (indices 4^t <= i < 2 * 4^t of `_plane_span`,
    t < s) and p = 0 are visited: A = A(p = 0) + 3 * sum A(p normalised),
    exact for dependent rows too.  That is 1 + (4^s - 1) / 3 block passes
    for the 4^s prefixes.  Each pass goes word by word, XORing the prefix
    into the block as one uint64 scalar per plane, and works in buffers
    allocated once per call.
    """
    multiples = _plane_multiples(lo, hi, n)
    split = len(lo) - min(len(lo), _BLOCK_K)
    block = _plane_span(multiples[split:])
    prefixes = _plane_span(multiples[:split])
    # one word of the block with the prefix XORed in; the OR of its two
    # planes overwrites the first, and no weight exceeds n
    mixed = np.empty((2, block.shape[2]), dtype=np.uint64)
    union = mixed[0]
    popcount = np.empty_like(union, dtype=np.uint8)
    weights = np.empty_like(union, dtype=np.min_scalar_type(n))
    counts = np.zeros(n + 1, dtype=np.int64)
    for i in [0] + [j for t in range(split) for j in range(4 ** t, 2 * 4 ** t)]:
        for w in range(block.shape[1]):
            p0, p1 = block[0, w], block[1, w]
            if i:
                p0 = np.bitwise_xor(p0, prefixes[0, w, i], out=mixed[0])
                p1 = np.bitwise_xor(p1, prefixes[1, w, i], out=mixed[1])
            np.bitwise_or(p0, p1, out=union)
            if w:
                weights += np.bitwise_count(union, out=popcount)
            else:
                np.bitwise_count(union, out=weights)
        class_size = 3 if i else 1
        counts += class_size * np.bincount(weights, minlength=n + 1)
    return counts


def _plane_multiples(lo, hi, n):
    """The multiples 0, 1, w, W of each row given as row planes (lo, hi): a
    (r, 2, W, 4) uint64 array, W = max(1, ceil(n / 64)), with column j at
    bit j mod 64 of word j // 64; at n = 0 the one word is empty."""
    shifts = range(0, max(n, 1), 64)
    flat = []
    for a0, a1 in zip(lo, hi):
        a2 = a0 ^ a1
        # c * (a0, a1) = (a0, a1), (a1, a0 ^ a1), (a0 ^ a1, a0) for c = 1, w, W
        for s in shifts:
            flat += (0, a0 >> s & _WORD, a1 >> s & _WORD, a2 >> s & _WORD)
        for s in shifts:
            flat += (0, a1 >> s & _WORD, a2 >> s & _WORD, a0 >> s & _WORD)
    multiples = np.fromiter(flat, dtype=np.uint64, count=len(flat))
    return multiples.reshape(len(lo), 2, len(shifts), 4)


def _plane_span(multiples):
    """All 4^r combinations of the rows behind `multiples` as a (2, W, 4^r)
    pair of bit planes; the coefficient of the last row varies fastest."""
    words = np.zeros((2, multiples.shape[2], 1), dtype=np.uint64)
    for scaled in multiples:
        words = (words[:, :, :, None] ^ scaled[:, :, None, :]).reshape(
            2, scaled.shape[1], -1
        )
    return words


def _row_space(g):
    """The code spanned by the rows of a uint8 matrix g, of length
    g.shape[1]: its RREF without the zero rows, the zero code for k = 0.
    The one step that turns rows into a `LinearCode`."""
    r, pivots = gf4.rref(g)
    return LinearCode(r[: len(pivots)])


def _check_coords(coords, n):
    coords = set(coords)
    if any(c < 0 or c >= n for c in coords):
        raise ValueError(f"coordinates must be in 0..{n - 1}")
    if len(coords) == n:
        raise AllCoordinatesError("cannot remove every coordinate")
    return coords

"""Exact arithmetic and dense linear algebra over GF(4).

Elements are encoded in 2 bits as 0, 1, w (omega), W (omega^2) -> 0, 1, 2, 3,
with 1 -> 0b01 and w -> 0b10.  In this basis field addition is bitwise XOR;
multiplication goes through a 16-entry table.  Matrices are plain numpy uint8
arrays holding one symbol per byte, values in 0..3, treated as immutable by
convention (helpers never mutate their inputs).  Internally, `rref` and
`rank` pack each row into two GF(2) bit planes held as Python ints
(`_row_planes`), and `matmul` splits its operands into bit planes for the
duration of one call.

`_eliminate` is the one elimination routine.  It works on those int row
lists alone, so callers that already hold packed rows (the Gram matrices of
the random search, from `_hermitian_gram_planes`) rank them with no numpy
call.
"""

import numpy as np

OMEGA, OMEGA2 = 2, 3

SYMBOLS = "01wW"

# MUL[a, b] = a * b in GF(4)
MUL = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ],
    dtype=np.uint8,
)

# conj(x) = x^2; coincides with the inverse on nonzero elements (x^3 = 1)
CONJ = np.array([0, 1, 3, 2], dtype=np.uint8)
MUL.setflags(write=False)
CONJ.setflags(write=False)


def as_matrix(rows):
    """Build a uint8 GF(4) matrix from nested lists (or pass uint8 arrays
    through).  A 1-D input is one row and an empty one is 0 x 0.

    Raises ValueError for more than 2 axes or for an entry that is not an
    integer in 0..3, checked before the cast, which would wrap or truncate.
    """
    m = np.asarray(rows)
    if m.ndim > 2:
        raise ValueError(f"a matrix has at most 2 axes, got {m.ndim}")
    if m.size and (m.dtype.kind not in "buif" or not 0 <= m.min() <= m.max() <= 3
                   or m.dtype.kind == "f" and (m % 1).any()):
        raise ValueError("entries must be integers in 0..3")
    m = m.astype(np.uint8, copy=False)
    if m.ndim != 2:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    return m


def matmul(a, b):
    """Matrix product over GF(4) via the two GF(2) bit planes."""
    a0 = (a & 1).astype(np.int64)
    a1 = (a >> 1).astype(np.int64)
    b0 = (b & 1).astype(np.int64)
    b1 = (b >> 1).astype(np.int64)
    c0 = (a0 @ b0 + a1 @ b1) & 1
    c1 = (a0 @ b1 + a1 @ b0 + a1 @ b1) & 1
    return (c0 | (c1 << 1)).astype(np.uint8)


def conj_transpose(m):
    return CONJ[m].T.copy()


# m & _PLANE_MASKS stacks the 1-bit and the w-bit planes of a matrix m
_PLANE_MASKS = np.array([1, 2], dtype=np.uint8).reshape(2, 1, 1)


def _row_planes(m):
    """The rows of a uint8 matrix as two lists of Python ints (lo, hi): the
    1-bit and the w-bit planes of each row's symbols, column j at bit j."""
    nrows, ncols = m.shape
    if nrows == 0 or ncols == 0:
        return [0] * nrows, [0] * nrows
    raw = np.packbits(m & _PLANE_MASKS, axis=2, bitorder="little").tobytes()
    step = (ncols + 7) // 8
    planes = [
        int.from_bytes(raw[i: i + step], "little") for i in range(0, len(raw), step)
    ]
    return planes[:nrows], planes[nrows:]


def _planes_matrix(lo, hi, ncols):
    """The uint8 matrix whose rows have the planes (lo, hi): the inverse of
    `_row_planes`."""
    step = (ncols + 7) // 8
    raw = b"".join(x.to_bytes(step, "little") for x in [*lo, *hi])
    planes = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(2, len(lo), step),
        axis=2, count=ncols, bitorder="little",
    )
    return planes[0] | (planes[1] << 1)


def _eliminate(lo, hi):
    """Gauss-Jordan elimination on packed rows, in place.

    Row i is held as two Python ints (lo[i], hi[i]) as built by
    `_row_planes`.  Pivot search scans left to right, top to bottom.  Returns
    the pivot columns; the rows past len(pivots) end up zero.  This is the
    one elimination routine: `rref`, `rank` and the packed Gram ranks of
    the random search all run on it.
    """
    nrows = len(lo)
    pivots = []
    row = 0
    while row < nrows:
        # the next pivot column is the lowest one that is nonzero in a row
        # from `row` on (the columns left of it are zero there); its pivot
        # row is the first such row
        pivot, bit = None, 0
        for i in range(row, nrows):
            v = lo[i] | hi[i]
            if v and (pivot is None or v & -v < bit):
                pivot, bit = i, v & -v
        if pivot is None:
            break
        lo[row], lo[pivot] = lo[pivot], lo[row]
        hi[row], hi[pivot] = hi[pivot], hi[row]
        a, b = lo[row], hi[row]
        if b & bit:
            # scale by the inverse of the pivot: w * (a, b) = (b, a ^ b),
            # W * (a, b) = (a ^ b, a)
            a, b = (b, a ^ b) if a & bit else (a ^ b, a)
            lo[row], hi[row] = a, b
        for i in range(nrows):
            if i == row:
                continue
            x, y = lo[i] & bit, hi[i] & bit
            if not (x or y):
                continue
            # subtract entry * pivot row
            if not y:
                lo[i] ^= a
                hi[i] ^= b
            elif not x:
                lo[i] ^= b
                hi[i] ^= a ^ b
            else:
                lo[i] ^= a ^ b
                hi[i] ^= a
        pivots.append(bit.bit_length() - 1)
        row += 1
    return pivots


def rref(m):
    """Reduced row-echelon form.

    Returns (R, pivots).  Pivot search scans left to right, top to bottom,
    so the output is deterministic.
    """
    m = np.asarray(m, dtype=np.uint8)
    lo, hi = _row_planes(m)
    pivots = _eliminate(lo, hi)
    return _planes_matrix(lo, hi, m.shape[1]), pivots


def rank(m):
    return len(_eliminate(*_row_planes(np.asarray(m, dtype=np.uint8))))


def kernel(m):
    """Basis of {x : M x^T = 0}, one solution per row.

    Row count is cols(M) - rank(M); returns a (0, cols) array for a trivial
    kernel.
    """
    ncols = m.shape[1]
    r, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for j, fc in enumerate(free):
        basis[j, fc] = 1
        for i, pc in enumerate(pivots):
            # x_pc = R[i, fc] * x_fc (characteristic 2, so no sign)
            basis[j, pc] = r[i, fc]
    return basis


def hermitian_gram(g):
    """G * conj(G)^T; the result equals its own conjugate transpose."""
    return matmul(g, conj_transpose(g))


def _hermitian_gram_planes(lo, hi):
    """G * conj(G)^T for a G given as row planes (lo, hi), returned as the
    row planes of the square Gram matrix.

    With x = x0 + x1 w and conj(y) = (y0 + y1) + y1 w, entry (i, j) =
    sum_t x_t conj(y_t) has the 1-bit popcount((x0 & (y0 ^ y1)) ^ (x1 & y1))
    and the w-bit popcount((x0 & y1) ^ (x1 & y0)), both mod 2, for x row i
    and y row j; entry (j, i) is its conjugate (c0 ^ c1, c1).
    """
    k = len(lo)
    glo = [0] * k
    ghi = [0] * k
    for i in range(k):
        x0, x1 = lo[i], hi[i]
        # the diagonal sums norms, which are 1 on every nonzero symbol
        glo[i] |= ((x0 | x1).bit_count() & 1) << i
        for j in range(i + 1, k):
            y0, y1 = lo[j], hi[j]
            c0 = ((x0 & (y0 ^ y1)) ^ (x1 & y1)).bit_count() & 1
            c1 = ((x0 & y1) ^ (x1 & y0)).bit_count() & 1
            glo[i] |= c0 << j
            ghi[i] |= c1 << j
            glo[j] |= (c0 ^ c1) << i
            ghi[j] |= c1 << i
    return glo, ghi

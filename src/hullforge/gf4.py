"""Exact arithmetic and dense linear algebra over GF(4).

Elements are encoded in 2 bits as 0, 1, w (omega), W (omega^2) -> 0, 1, 2, 3,
with 1 -> 0b01 and w -> 0b10.  In this basis field addition is bitwise XOR;
multiplication goes through a 16-entry table.  Matrices are plain numpy uint8
arrays with values in 0..3, treated as immutable by convention (helpers never
mutate their inputs).
"""

import numpy as np

ZERO, ONE, OMEGA, OMEGA2 = 0, 1, 2, 3

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


def add(a, b):
    return a ^ b


def mul(a, b):
    return int(MUL[a, b])


def conj(a):
    return int(CONJ[a])


def as_matrix(rows):
    """Build a uint8 GF(4) matrix from nested lists (or pass arrays through)."""
    m = np.asarray(rows, dtype=np.uint8)
    if m.ndim != 2:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    if m.size and m.max() > 3:
        raise ValueError("entries must be in 0..3")
    return m


def scale_row(c, row):
    """c * row, elementwise."""
    return MUL[c, row]


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


def rref(m):
    """Reduced row-echelon form.

    Returns (R, pivots).  Pivot search scans left to right, top to bottom,
    so the output is deterministic.
    """
    r = np.array(m, dtype=np.uint8, copy=True)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot = None
        for i in range(row, nrows):
            if r[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        if r[row, col] != 1:
            r[row] = MUL[CONJ[r[row, col]], r[row]]
        for i in range(nrows):
            if i != row and r[i, col]:
                r[i] ^= MUL[r[i, col], r[row]]
        pivots.append(col)
        row += 1
    return r, pivots


def rank(m):
    if m.size == 0:
        return 0
    return len(rref(m)[1])


def kernel(m):
    """Basis of {x : M x^T = 0}, one solution per row.

    Row count is cols(M) - rank(M); returns a (0, cols) array for a trivial
    kernel.
    """
    nrows, ncols = m.shape
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.uint8)
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


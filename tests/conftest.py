import itertools

import numpy as np
import pytest

from hullforge import gf4
from hullforge.code import LinearCode

# Independent GF(4) tables for oracle computations: 0,1,w,W with w^2 = w + 1.
# Built from the polynomial representation over GF(2)[x]/(x^2 + x + 1) rather
# than the package's lookup tables.


def _poly_mul(a, b):
    # interpret 2-bit values as polynomials in x, reduce mod x^2 + x + 1
    prod = 0
    for i in range(2):
        if (a >> i) & 1:
            prod ^= b << i
    # reduce x^3 -> x^2 + x? degree <= 2 here: x^2 -> x + 1
    if prod & 4:
        prod ^= 0b111  # x^2 + x + 1
    if prod & 4:
        prod ^= 0b111
    return prod & 3


ORACLE_MUL = [[_poly_mul(a, b) for b in range(4)] for a in range(4)]


ORACLE_INV = [None] + [
    next(b for b in range(1, 4) if ORACLE_MUL[a][b] == 1) for a in range(1, 4)
]


def oracle_rref(m):
    """Reduced row-echelon form by plain Gauss-Jordan elimination on one
    symbol per byte: pivot search left to right, top to bottom."""
    mul = np.array(ORACLE_MUL, dtype=np.uint8)
    r = np.array(m, dtype=np.uint8, copy=True)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot = next((i for i in range(row, nrows) if r[i, col]), None)
        if pivot is None:
            continue
        r[[row, pivot]] = r[[pivot, row]]
        r[row] = mul[ORACLE_INV[r[row, col]], r[row]]
        for i in range(nrows):
            if i != row and r[i, col]:
                r[i] ^= mul[r[i, col], r[row]]
        pivots.append(col)
        row += 1
    return r, pivots


def oracle_row_planes(m):
    """Rows as (lo, hi) lists of Python ints, column j at bit j, built one
    entry at a time: the 1-bit and the w-bit of each symbol."""
    lo = [sum((int(x) & 1) << j for j, x in enumerate(row)) for row in m]
    hi = [sum((int(x) >> 1) << j for j, x in enumerate(row)) for row in m]
    return lo, hi


def planes_to_matrix(lo, hi, ncols):
    """Inverse of oracle_row_planes."""
    return np.array(
        [[(a >> j & 1) | (b >> j & 1) << 1 for j in range(ncols)]
         for a, b in zip(lo, hi)],
        dtype=np.uint8,
    ).reshape(len(lo), ncols)


def oracle_codewords(gen):
    """All codewords by direct message-by-message evaluation (pure python)."""
    k, n = gen.shape
    words = []
    for msg in itertools.product(range(4), repeat=k):
        word = [0] * n
        for c, row in zip(msg, gen):
            for j in range(n):
                word[j] ^= ORACLE_MUL[c][row[j]]
        words.append(tuple(word))
    return words


def oracle_weights(gen):
    return sorted(sum(1 for x in w if x) for w in oracle_codewords(gen))


def oracle_min_distance(gen):
    return min(w for w in oracle_weights(gen) if w > 0)


def random_code(rng, n, k):
    """A random [n, k'] code with k' <= k (dependent rows tolerated)."""
    while True:
        g = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
        if g.any():
            return LinearCode.from_generator(g)


@pytest.fixture
def rng():
    return np.random.default_rng(20230814)


# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)

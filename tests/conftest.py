import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hullforge
from hullforge import gf4, search
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


def unpacked_gram(g, s):
    """The row planes of the Hermitian s x s Gram that `search._gram_table`
    packs into g: the upper triangle of the 1-plane with its diagonal, then
    the strict upper triangle of the w-plane; entry (j, i) is the conjugate
    (c0 ^ c1, c1) of entry (i, j)."""
    upper = [(i, j) for i in range(s) for j in range(i, s)]
    strict = [(i, j) for i, j in upper if i < j]
    glo, ghi = [0] * s, [0] * s
    for t, (i, j) in enumerate(upper):
        glo[i] |= (g >> t & 1) << j
    for t, (i, j) in enumerate(strict, len(upper)):
        c0, c1 = glo[i] >> j & 1, g >> t & 1
        ghi[i] |= c1 << j
        glo[j] |= (c0 ^ c1) << i
        ghi[j] |= c1 << i
    return glo, ghi


def packed_gram_rank(g, s):
    """The rank of the packed s x s Gram g by elimination on its unpacked
    rows: a rank that does not read the bitmaps of `search._gram_table`."""
    return len(gf4._eliminate(*unpacked_gram(g, s)))


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


def oracle_enumerate_multiplicities(n, k, d):
    """The k <= 3 multiplicity-vector DFS as it was before its bottom levels
    became numpy tables, kept as the reference for (witness, examined).

    Walk the multiplicity vectors of weight >= d, pruned by the column
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
    one int of k^2 packed bits (`search._gram_table`), ranked by elimination
    (`packed_gram_rank`) only at leaves that reach weight d.
    A d < 1 would overfill the lanes, so it raises ValueError.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    geo = search._geometry(k)
    length = geo.length
    lower, upper = search.multiplicity_bounds(n, k, d)
    if upper < lower or upper * length < n or lower * length > n:
        return None, 0
    gram_bits = geo.gram_bits
    last = length - 1
    if last == 0:
        # k = 1: the single column takes all of n, which the checks above
        # put inside [lower, upper], so this one vector is the only leaf
        hit = n >= d and packed_gram_rank(gram_bits[0] if n % 2 else 0, k) == k - 1
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
            # (distance to the mean times length - pos, in ints)
            order = sorted(range(lo, hi + 1),
                           key=lambda x: (abs(x * (length - pos) - remaining), x))
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
                    gram_v ^= gram_bits[last] if rest % 2 else 0
                    if packed_gram_rank(gram_v, k) == k - 1:
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


def exhaustive_column(n, k):
    """{length: outcome} for the lengths k..n, read from one
    `search.exhaustive_dh(n, k)` call through its `shorter` links."""
    column = {}
    outcome = search.exhaustive_dh(n, k)
    while outcome is not None:
        column[n] = outcome
        n, outcome = n - 1, outcome.shorter
    return column


def run_python(*args, timeout=60):
    """Run a fresh `python *args` with this checkout's package first on the
    path."""
    src = str(Path(hullforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_optimised(script):
    """Run a Python script under `python -O`, which drops assert statements,
    with this checkout's package first on the path."""
    return run_python("-O", "-c", script)


def oracle_hull_lift(b):
    """The hull-2 lift as it was before its rejections moved to the smaller
    Gram: the row-side Gram of [I | b] for every lift, and the shortened
    code rebuilt from b without row p."""
    glo, ghi = gf4._hermitian_gram_planes(*search._systematic_planes(b))
    if len(glo) - len(gf4._eliminate(glo, ghi)) != 2:
        return None
    rows = set(zip(glo, ghi))
    p = next(c for c in range(len(glo)) if (1 << c, 0) not in rows)
    return search._systematic_planes(np.delete(b, p, axis=0))


def oracle_random_search(n, k, seed, budget):
    """The loop of `search.random_search` before it screened row pairs and
    ties: only the row screen, then the hull test and the weights of every
    candidate that passes it.  The hull test is the numpy Gram's rank, not
    the engine's packed one.  Returns (best_d, best generator bytes or
    None)."""
    best_d, best = 0, None
    for t in range(budget):
        j = t % search._RANDOM_CHUNK
        if j == 0:
            rng = np.random.default_rng([seed, t // search._RANDOM_CHUNK])
        mode = j % 3
        planes = None
        if mode == 1:
            value = int(rng.integers(4))
            i = int(rng.integers(k))
            bit = 1 << (k + int(rng.integers(n - k)))
            lo, hi = current[0][:], current[1][:]
            lo[i] = lo[i] | bit if value & 1 else lo[i] & ~bit
            hi[i] = hi[i] | bit if value & 2 else hi[i] & ~bit
            planes = current = lo, hi
        elif mode == 2:
            planes = oracle_hull_lift(
                rng.integers(0, 4, size=(k + 1, n - k), dtype=np.uint8))
        if planes is None:
            a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
            planes = current = search._systematic_planes(a)
        if min((x0 | x1).bit_count() for x0, x1 in zip(*planes)) < best_d:
            continue
        gen = gf4._planes_matrix(*planes, n)
        if k - gf4.rank(gf4.hermitian_gram(gen)) != 1:
            continue
        counts = search._plane_weights(*planes, n)
        d = int(np.flatnonzero(counts[1:])[0]) + 1
        if d < best_d:
            continue
        gen = gen.tobytes()
        if d > best_d or gen < best:
            best_d, best = d, gen
    return best_d, best


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

"""A brute-force oracle for the small hull-1 table: every k-dimensional
subspace of GF(4)^n, as its RREF generator.

It shares nothing with the package's engines: no multiplicity vectors, no
stored witnesses, no `LinearCode`, `hull`, `bounds` or `search`.  It uses
numpy and the GF(4) multiplication table of `conftest`, built from
polynomial arithmetic, with conjugation as squaring.
"""

import itertools

import numpy as np

from conftest import ORACLE_MUL

MUL = np.array(ORACLE_MUL, dtype=np.uint8)
CONJ = MUL[range(4), range(4)]  # conj(x) = x^2


def messages(k):
    """Every message of GF(4)^k, one per row, the zero message first."""
    return np.array(list(itertools.product(range(4), repeat=k)),
                    dtype=np.uint8).reshape(4 ** k, k)


def combine(x, stack):
    """x @ g over GF(4) for every message x (rows of x) and every matrix g
    of the (N, k, m) stack: an (N, len(x), m) array."""
    out = np.zeros((len(stack), len(x), stack.shape[2]), dtype=np.uint8)
    for i in range(x.shape[1]):
        out ^= MUL[x[None, :, i, None], stack[:, None, i, :]]
    return out


def rref_generators(n, k):
    """Every k x n generator in RREF, one (N, k, n) stack per pivot set:
    each row has 1 at its pivot, 0 at the other pivots and left of its own,
    and every value at each remaining entry."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, n) if j not in pivots]
        stack = np.zeros((4 ** len(free), k, n), dtype=np.uint8)
        stack[:, range(k), list(pivots)] = 1
        if free:
            rows, cols = zip(*free)
            stack[:, list(rows), list(cols)] = messages(len(free))
        yield stack


def cell(n, k):
    """(the number of k-dimensional subspaces of GF(4)^n, the largest
    distance of a hull-1 one or None).

    The hull of C has dimension k - rank(M) for the Hermitian Gram
    M = G conj(G)^T, and the messages x with x M = 0 are 4^(k - rank) of
    them, so C is hull-1 exactly when 4 messages are null.  The distance is
    the least weight of x G over the nonzero messages x.
    """
    x = messages(k)
    subspaces, best = 0, None
    for stack in rref_generators(n, k):
        subspaces += len(stack)
        conj = CONJ[stack]
        gram = np.zeros((len(stack), k, k), dtype=np.uint8)
        for j in range(n):
            gram ^= MUL[stack[:, :, None, j], conj[:, None, :, j]]
        hull_one = (combine(x, gram) == 0).all(axis=2).sum(axis=1) == 4
        if hull_one.any():
            weights = (combine(x[1:], stack[hull_one]) != 0).sum(axis=2)
            d = int(weights.min(axis=1).max())
            best = d if best is None else max(best, d)
    return subspaces, best

"""A small GF(4) reference used only by the benchmark.

It re-derives every quantity the output checks need (ranks, Hermitian Gram
ranks, weight distributions for k <= 6, the MacWilliams transform) without
calling into the package being measured, so a bug or a shortcut in the
timed layers cannot also hide in the checker.

Elements are 0, 1, w, W -> 0, 1, 2, 3; addition is XOR.
"""

from math import comb

import numpy as np

MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
CONJ = (0, 1, 3, 2)  # x^2, which is also x^-1 for x != 0
SYMBOLS = "01wW"
_MUL_NP = np.array(MUL, dtype=np.uint8)

ENUM_MAX_K = 6


def rank(rows):
    """Rank of a GF(4) matrix given as a sequence of rows."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = CONJ[m[r][col]]
        m[r] = [MUL[inv][x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a ^ MUL[f][b] for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def gram(rows):
    """G conj(G)^T over GF(4)."""
    out = []
    for u in rows:
        line = []
        for v in rows:
            acc = 0
            for a, b in zip(u, v):
                acc ^= MUL[a][CONJ[b]]
            line.append(acc)
        out.append(line)
    return out


def hull_dim(rows):
    """Hermitian hull dimension of the row space of a full-rank generator."""
    return len(rows) - rank(gram(rows))


def weight_distribution(rows):
    """A_0..A_n by enumerating all 4^k codewords (k <= ENUM_MAX_K)."""
    k, n = len(rows), len(rows[0])
    if k > ENUM_MAX_K:
        raise ValueError(f"reference enumeration is limited to k <= {ENUM_MAX_K}")
    words = np.zeros((1, n), dtype=np.uint8)
    for row in rows:
        scaled = _MUL_NP[:, np.asarray(row, dtype=np.uint8)]
        words = (words[:, None, :] ^ scaled[None, :, :]).reshape(-1, n)
    weights = np.count_nonzero(words, axis=1)
    return [int(c) for c in np.bincount(weights, minlength=n + 1)]


def min_nonzero(weights):
    return next((w for w, c in enumerate(weights) if w and c), None)


def macwilliams(weights, k):
    """Weight distribution of the dual of an [n, k] code over GF(4).

    Returns None when the transform is not a valid weight distribution
    (a non-integer or negative count, or B_0 != 1), which happens whenever
    the input is not the weight distribution of a linear [n, k] code.
    """
    n = len(weights) - 1
    size = 4 ** k
    dual = []
    for j in range(n + 1):
        total = sum(
            a * sum((-1) ** s * 3 ** (j - s) * comb(i, s) * comb(n - i, j - s)
                    for s in range(j + 1))
            for i, a in enumerate(weights) if a
        )
        if total % size or total < 0:
            return None
        dual.append(total // size)
    if dual[0] != 1:
        return None
    return dual


def parse_matrix(text):
    """(n, k, rows) from .g4m text; raises ValueError on any format error."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix text")
    n, k = (int(x) for x in lines[0].split())
    rows = [[SYMBOLS.index(s) for s in ln.split()] for ln in lines[1:]]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError(f"matrix body does not match header {n} {k}")
    return n, k, rows


def render_matrix(rows):
    n, k = len(rows[0]), len(rows)
    body = [" ".join(SYMBOLS[v] for v in r) for r in rows]
    return "\n".join([f"{n} {k}"] + body) + "\n"

"""Explicit code constructions: simplex matrices, multiplicity-vector codes,
simplex padding, and the fixture corpus.

The simplex column order produced by the recursion is normative: the
multiplicity-vector indexing and the column-count bounds used by the search
module all index into it.
"""

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import gf4, matfmt
from .code import LinearCode
from .exceptions import (
    DimensionTooSmallError,
    RankDeficientError,
    UnknownFixtureError,
)
from .hull import hull_dim


def simplex_length(k):
    return (4**k - 1) // 3


@lru_cache(maxsize=None)
def simplex_matrix(k):
    """The k x (4^k - 1)/3 simplex generator, built by the standard recursion.

    S_1 = (1); S_k stacks [S_{k-1} 0 S_{k-1} S_{k-1} S_{k-1}] over
    [0 1 1 w1 W1].
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        m = np.array([[1]], dtype=np.uint8)
    else:
        prev = simplex_matrix(k - 1)
        n_prev = prev.shape[1]
        zero_col = np.zeros((k - 1, 1), dtype=np.uint8)
        top = np.hstack([prev, zero_col, prev, prev, prev])
        ones = np.ones(n_prev, dtype=np.uint8)
        bottom = np.concatenate(
            [
                np.zeros(n_prev, dtype=np.uint8),
                np.array([1], dtype=np.uint8),
                ones,
                gf4.MUL[gf4.OMEGA, ones],
                gf4.MUL[gf4.OMEGA2, ones],
            ]
        )
        m = np.vstack([top, bottom])
    m.setflags(write=False)
    return m


def simplex(k):
    """The [(4^k - 1)/3, k, 4^(k-1)] simplex code."""
    return LinearCode.from_generator(simplex_matrix(k))


@dataclass(frozen=True)
class MultiplicityVector:
    """Column multiplicities m_i of the simplex columns h_{k,i}."""

    k: int
    m: tuple

    def __post_init__(self):
        if len(self.m) != simplex_length(self.k):
            raise ValueError(
                f"m must have length {simplex_length(self.k)} for k={self.k}"
            )
        if any(x < 0 for x in self.m):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def n(self):
        return sum(self.m)


def multiplicity_generator(mv: MultiplicityVector):
    """G_k(m): m_i copies of column h_{k,i}, in simplex column order."""
    g = np.repeat(simplex_matrix(mv.k), mv.m, axis=1)
    if not g.size:
        raise RankDeficientError("empty multiplicity vector")
    return g


def code_from_multiplicity(mv: MultiplicityVector) -> LinearCode:
    code = LinearCode.from_generator(multiplicity_generator(mv))
    if code.k < mv.k:
        raise RankDeficientError("selected columns do not span the message space")
    return code


def extend_simplex(c: LinearCode, s: int) -> LinearCode:
    """Prepend s simplex blocks: hull dimension is preserved and the minimum
    distance grows by exactly 4^(k-1) per block."""
    if c.k < 2:
        raise DimensionTooSmallError("simplex padding needs k >= 2")
    if s < 0:
        raise ValueError("s must be nonnegative")
    blocks = [simplex_matrix(c.k)] * s + [c.generator]
    return LinearCode.from_generator(np.hstack(blocks))


# -- parameterized witnesses -----------------------------------------------


def even_length_check_matrix(n):
    """2 x n parity-check matrix whose code is [n, n-2] with hull dimension 1
    (n even, n >= 4); the distance is 2 for n >= 6 and 3 at n = 4."""
    if n < 4 or n % 2:
        raise ValueError("n must be even and >= 4")
    h = np.ones((2, n), dtype=np.uint8)
    h[0, 1] = 0
    h[1, 0] = 0
    h[1, 2] = gf4.OMEGA
    h[1, 3] = gf4.OMEGA2
    h[1, 4:] = 0
    return h


def distance_two_code(n, k):
    """The sparse [n, n-k, 2] hull-1 code used for long lengths: identity
    block, two all-ones columns, an e_1 column, and zero padding.  At k = 3
    it is the d = 2 witness of the k = n - 3 column for n >= 20."""
    if k < 3 or n <= k:
        raise ValueError("need k >= 3 and n > k")
    rows = n - k
    g = np.zeros((rows, n), dtype=np.uint8)
    g[:, :rows] = np.eye(rows, dtype=np.uint8)
    g[:, rows] = 1
    g[:, rows + 1] = 1
    g[0, rows + 2] = 1
    return LinearCode.from_generator(g)


# -- fixture corpus --------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    name: str
    claimed_n: int
    claimed_k: int
    claimed_d: int
    matrix: np.ndarray

    def code(self):
        return LinearCode.from_generator(self.matrix)


def _parse_params(name):
    # names look like G_[12,3,8]
    inner = name[name.index("[") + 1: name.index("]")]
    n, k, d = (int(x) for x in inner.split(","))
    return n, k, d


def fixture_names():
    root = resources.files("hullforge").joinpath("data/fixtures")
    return tuple(sorted(p.name[: -len(".g4m")] for p in root.iterdir()
                        if p.name.endswith(".g4m")))


def fixture(name) -> Fixture:
    """Load a transcribed generator matrix by name, e.g. "G_[12,3,8]";
    each call reads and parses its file again."""
    root = resources.files("hullforge").joinpath("data/fixtures")
    path = root.joinpath(name + ".g4m")
    if not path.is_file():
        raise UnknownFixtureError(name)
    matrix = matfmt.parse(path.read_text(encoding="ascii"))
    n, k, d = _parse_params(name)
    return Fixture(name, n, k, d, matrix)


def verify_fixture(fx: Fixture):
    """Recompute (n, k, d, hull dim) and compare with the claims; every
    fixture claims hull dimension 1."""
    c = fx.code()
    results = {
        "n": c.n,
        "k": c.k,
        "d": c.min_distance(),
        "hull_dim": hull_dim(c),
    }
    claims = {
        "n": fx.claimed_n,
        "k": fx.claimed_k,
        "d": fx.claimed_d,
        "hull_dim": 1,
    }
    return results == claims, results, claims

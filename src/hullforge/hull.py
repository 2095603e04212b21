"""Hermitian hull computation and classification.

The hull dimension is k - rank(G conj(G)^T); the hull basis is pulled back
through conjugation from the kernel of the Gram matrix.  An independent
row-space-intersection oracle lives in the test suite.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import gf4
from .code import LinearCode


class HullClass(enum.Enum):
    LCD = "LCD"
    SELF_ORTHOGONAL = "self-orthogonal"
    PROPER = "proper"


@dataclass(frozen=True)
class HullReport:
    hull_dim: int
    hull_basis: np.ndarray  # (hull_dim, n)
    classification: HullClass


def hull_report(c: LinearCode) -> HullReport:
    gram = gf4.hermitian_gram(c.generator)
    ker = gf4.kernel(gram)
    dim = ker.shape[0]
    # hull vectors are conj(u) . G for u in the Gram kernel
    basis = gf4.matmul(gf4.CONJ[ker], c.generator)
    if dim == 0:
        cls = HullClass.LCD
    elif dim == c.k:
        cls = HullClass.SELF_ORTHOGONAL
    else:
        cls = HullClass.PROPER
    return HullReport(dim, basis, cls)


def hull_dim(c: LinearCode) -> int:
    return c.k - gf4.rank(gf4.hermitian_gram(c.generator))


def is_even(c: LinearCode) -> bool:
    """True iff every codeword has even Hamming weight (<=> Hermitian SO)."""
    wd = c.weight_distribution()
    return all(ct == 0 for w, ct in enumerate(wd.counts) if w % 2 == 1)


def hull_information_set(c: LinearCode):
    """Pivot columns of the hull basis in RREF."""
    _, pivots = gf4.rref(hull_report(c).hull_basis)
    return pivots

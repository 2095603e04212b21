"""Stored hull-1 witness codes for the n <= 12 distance table.

One .g4m file per (n, k) cell, named W_[n,k,d].g4m.  Every stored matrix was
found by this package's own exhaustive/randomized searches or constructions
and is re-verified by the test suite; the table command tags cells backed by
these files as "witness".
"""

from functools import lru_cache
from importlib import resources

from . import matfmt
from .code import LinearCode
from .construct import _parse_params
from .exceptions import OutOfRangeError


@lru_cache(maxsize=1)
def _index():
    root = resources.files("hullforge").joinpath("data/witnesses")
    out = {}
    for entry in root.iterdir():
        if not entry.name.endswith(".g4m"):
            continue
        n, k, d = _parse_params(entry.name)
        out[(n, k)] = (entry, d)
    return out


def available():
    return sorted(_index())


def claimed_distance(n, k):
    try:
        return _index()[(n, k)][1]
    except KeyError:
        raise OutOfRangeError(f"no stored witness for (n={n}, k={k})") from None


@lru_cache(maxsize=None)
def witness(n, k) -> LinearCode:
    try:
        entry, _ = _index()[(n, k)]
    except KeyError:
        raise OutOfRangeError(f"no stored witness for (n={n}, k={k})") from None
    return LinearCode.from_generator(matfmt.parse(entry.read_text(encoding="ascii")))

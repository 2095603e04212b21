"""Stored hull-1 witness codes for the n <= 12 distance table.

One .g4m file per (n, k) cell, named W_[n,k].g4m and opened by that name:
the cell's distance comes from `bounds` alone.  Every stored matrix was found
by this package's own exhaustive/randomized searches or constructions and is
re-verified against `bounds` by the test suite and by `verify-paper`.
"""

from importlib import resources

from . import matfmt
from .code import LinearCode
from .exceptions import OutOfRangeError


def witness(n, k) -> LinearCode:
    """The stored hull-1 witness of cell (n, k), read from its file on
    every call."""
    path = resources.files("hullforge").joinpath(f"data/witnesses/W_[{n},{k}].g4m")
    if not path.is_file():
        raise OutOfRangeError(f"no stored witness for (n={n}, k={k})")
    return LinearCode.from_generator(matfmt.parse(path.read_text(encoding="ascii")))

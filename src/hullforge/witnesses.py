"""Stored hull-1 witness codes for the n <= 12 distance table.

One .g4m file per (n, k) cell, named W_[n,k,d].g4m and found by its (n, k)
prefix alone: the cell's distance comes from `bounds`, and a test pins the d
in each file name to it.  Every stored matrix was found by this package's own
exhaustive/randomized searches or constructions and is re-verified by the
test suite.
"""

from importlib import resources

from . import matfmt
from .code import LinearCode
from .exceptions import OutOfRangeError


def witness(n, k) -> LinearCode:
    """The stored hull-1 witness of cell (n, k), read from its file on
    every call."""
    root = resources.files("hullforge").joinpath("data/witnesses")
    prefix = f"W_[{n},{k},"
    matches = [entry for entry in root.iterdir()
               if entry.name.startswith(prefix) and entry.name.endswith(".g4m")]
    if len(matches) != 1:
        raise OutOfRangeError(f"need one stored witness for (n={n}, k={k}), "
                              f"found {len(matches)}")
    return LinearCode.from_generator(matfmt.parse(matches[0].read_text(encoding="ascii")))

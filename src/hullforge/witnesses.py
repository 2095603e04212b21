"""Stored hull-1 witness codes for the n <= 12 distance table.

One .g4m file per (n, k) cell, named W_[n,k,d].g4m and found by its (n, k)
prefix alone: the cell's distance comes from `bounds`, and a test pins the d
in each file name to it.  Every stored matrix was found by this package's own
exhaustive/randomized searches or constructions and is re-verified by the
test suite.
"""

from functools import lru_cache
from importlib import resources

from . import matfmt
from .code import LinearCode
from .exceptions import OutOfRangeError


@lru_cache(maxsize=None)
def witness(n, k) -> LinearCode:
    root = resources.files("hullforge").joinpath("data/witnesses")
    prefix = f"W_[{n},{k},"
    matches = [entry for entry in root.iterdir()
               if entry.name.startswith(prefix) and entry.name.endswith(".g4m")]
    if len(matches) != 1:
        raise OutOfRangeError(f"need one stored witness for (n={n}, k={k}), "
                              f"found {len(matches)}")
    return LinearCode.from_generator(matfmt.parse(matches[0].read_text(encoding="ascii")))

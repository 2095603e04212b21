"""Matrix text format (.g4m).

Header line "n k", then k body lines of n whitespace-separated symbols from
{0, 1, w, W} (W is omega^2).  Lines starting with '#' are comments.  Output is
canonical: ASCII, LF endings, single spaces.
"""

import numpy as np

from . import gf4
from .exceptions import ParseError

_SYM_TO_VAL = {sym: val for val, sym in enumerate(gf4.SYMBOLS)}
_DIGIT_TO_VAL = {"0": 0, "1": 1, "2": 2, "3": 3}


def parse(text, digits=False):
    """Parse matrix text; returns a (k, n) uint8 array.

    With digits=True the body alphabet is {0,1,2,3} (2 = omega).
    """
    alphabet = _DIGIT_TO_VAL if digits else _SYM_TO_VAL
    lines = text.splitlines()
    content = [
        (i + 1, ln) for i, ln in enumerate(lines)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not content:
        raise ParseError("empty matrix file")
    header_no, header = content[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n k'", line=header_no)
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be two integers", line=header_no) from None
    if n < 1 or k < 1:
        raise ParseError("n and k must be positive", line=header_no)
    body = content[1:]
    if len(body) != k:
        raise ParseError(f"expected {k} matrix rows, found {len(body)}")
    rows = []
    for line_no, line in body:
        symbols = line.split()
        if len(symbols) != n:
            raise ParseError(
                f"expected {n} symbols, found {len(symbols)}", line=line_no
            )
        row = []
        col = 0
        for sym in symbols:
            col = line.index(sym, col) + 1
            if sym not in alphabet:
                raise ParseError(f"illegal symbol {sym!r}", line=line_no, column=col)
            row.append(alphabet[sym])
        rows.append(row)
    return np.array(rows, dtype=np.uint8)


def render(matrix, comment=None):
    """Canonical text for a matrix; inverse of parse for canonical files."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    k, n = matrix.shape
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"{n} {k}")
    for row in matrix:
        out.append(" ".join(gf4.SYMBOLS[v] for v in row))
    return "\n".join(out) + "\n"


def load(path, digits=False):
    with open(path, encoding="ascii") as fh:
        return parse(fh.read(), digits=digits)


def save(path, matrix, comment=None):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render(matrix, comment=comment))

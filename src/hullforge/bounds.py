"""Classical bounds and closed-form largest-distance values for quaternary
codes with one-dimensional Hermitian hull.

All arithmetic is exact; the sphere-packing test uses Python big integers.
The n <= 12 table is stored literally because it is not derivable from the
closed forms alone.
"""

import enum
from dataclasses import dataclass
from math import ceil, comb

from .exceptions import OutOfRangeError


class DhKind(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class DhValue:
    kind: DhKind
    d: int

    @property
    def exact(self):
        return self.kind is DhKind.EXACT


def griesmer_holds(n, k, d):
    return n >= sum(ceil(d / 4**i) for i in range(k))


def griesmer_max_d(n, k):
    """Largest d with n >= sum_{i<k} ceil(d / 4^i)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    d = 0
    while griesmer_holds(n, k, d + 1):
        d += 1
    return d


def sphere_packing_holds(n, k, d):
    radius = (d - 1) // 2
    volume = sum(3**i * comb(n, i) for i in range(radius + 1))
    return 4**k * volume <= 4**n


def sphere_packing_max_d(n, k):
    """Largest d <= n - k + 1 passing the sphere-packing test.

    The Singleton cap keeps the answer meaningful: the raw inequality is not
    monotone in d (even/odd d share a packing radius).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    # the ball volume sum_{i <= radius} 3^i C(n, i) grows term by term, so
    # the scan makes O(n) big-int steps instead of O(n^2); d + 1 has radius
    # d // 2
    room = 4 ** (n - k)
    d, radius, term, volume = 1, 0, 1, 1
    while d < n - k + 1:
        if d % 2 == 0:
            radius += 1
            term = term * 3 * (n - radius + 1) // radius
            volume += term
        if volume > room:
            break
        d += 1
    return d


# The largest hull-1 distance for k = 3, by residue of n mod 21.  Value is
# 16*(n // 21) + offset; None marks the open residue (n = 21s + 5), which is
# only a lower bound beyond the settled small cases.
_K3_OFFSET = {
    0: -1, 1: 0, 2: 0, 3: 1, 4: 2, 5: None, 6: 3, 7: 4, 8: 5, 9: 6,
    10: 6, 11: 7, 12: 8, 13: 9, 14: 10, 15: 10, 16: 11, 17: 12, 18: 13,
    19: 14, 20: 14,
}

# n = 21s + 5 instances settled by the length <= 35 classification
_K3_RESIDUE5_EXACT = {5: 2, 26: 18}


def k3_value(n):
    """D-value for dimension 3 at length n >= 4 (piecewise in n mod 21)."""
    if n < 4:
        raise OutOfRangeError("need n >= 4 for k = 3")
    s, t = divmod(n, 21)
    offset = _K3_OFFSET[t]
    if offset is None:
        if n in _K3_RESIDUE5_EXACT:
            return DhValue(DhKind.EXACT, _K3_RESIDUE5_EXACT[n])
        return DhValue(DhKind.LOWER_BOUND, 16 * s + 2)
    return DhValue(DhKind.EXACT, 16 * s + offset)


def dh_closed_form(n, k):
    """Closed-form largest hull-1 distance, or None when not covered.

    Covers k in {1, 2, 3, n-1, n-2, n-3}; everything else is left to the
    n <= 12 table or to search.
    """
    if n < 2 or not 1 <= k <= n:
        return None
    if k == 1:
        return DhValue(DhKind.EXACT, n if n % 2 == 0 else n - 1)
    if k == n - 1:
        return DhValue(DhKind.EXACT, 2 if n % 2 == 0 else 1)
    if k == 2 and n >= 3:
        base = 4 * n // 5
        return DhValue(DhKind.EXACT, base - 1 if n % 5 in (0, 3) else base)
    if k == 3 and n >= 4:
        return k3_value(n)
    if k == n - 2 and n >= 3:
        return DhValue(DhKind.EXACT, 3 if n == 4 else 2)
    if k == n - 3 and n >= 4:
        if n == 4:
            d = 4
        elif n <= 19:
            d = 3
        else:
            d = 2
        return DhValue(DhKind.EXACT, d)
    return None


# Exact largest hull-1 distances for 2 <= n <= 12, 1 <= k <= n - 1.
_TABLE5_ROWS = {
    2: (2,),
    3: (2, 1),
    4: (4, 3, 2),
    5: (4, 3, 2, 1),
    6: (6, 4, 3, 2, 2),
    7: (6, 5, 4, 3, 2, 1),
    8: (8, 5, 5, 4, 3, 2, 2),
    9: (8, 7, 6, 5, 4, 3, 2, 1),
    10: (10, 7, 6, 5, 5, 4, 3, 2, 2),
    11: (10, 8, 7, 6, 5, 4, 4, 3, 2, 1),
    12: (12, 9, 8, 7, 6, 6, 4, 4, 3, 2, 2),
}


def table5_lookup(n, k):
    """The tabulated exact hull-1 distance for n <= 12."""
    if not (2 <= n <= 12 and 1 <= k <= n - 1):
        raise OutOfRangeError(f"no table cell for (n={n}, k={k})")
    return _TABLE5_ROWS[n][k - 1]


def table5_cells():
    for n, row in _TABLE5_ROWS.items():
        for k, d in enumerate(row, start=1):
            yield n, k, d

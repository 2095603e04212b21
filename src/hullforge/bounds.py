"""Classical bounds and closed-form largest-distance values for quaternary
codes with one-dimensional Hermitian hull.

For k <= 3 < n the largest hull-1 distance is the Griesmer bound, less one
when n mod (2, 5, 21) for k = (1, 2, 3) is a deficit residue of that
dimension (`_DEFICITS`).  The residue n = 21s + 5 of dimension 3 is open
beyond n = 5 and 26: there the value is only a lower bound.

All arithmetic is exact; the sphere-packing test uses Python big integers.
The n <= 12 table is stored literally because it is not derivable from the
closed forms alone.
"""

from dataclasses import dataclass
from math import comb

from .exceptions import OutOfRangeError


@dataclass(frozen=True)
class DhValue:
    """A largest hull-1 distance d; exact is False when d is only a lower
    bound (the open residue n = 21s + 5 of dimension 3)."""

    d: int
    exact: bool


def griesmer_holds(n, k, d):
    """n >= sum_{i<k} ceil(d / 4^i), summed exactly; every term with
    4^i >= d > 0 is 1, so at most log4(d) + 1 terms are computed."""
    total, power = 0, 1
    for i in range(k):
        if 0 < d <= power:
            return n >= total + (k - i)
        total += -(-d // power)
        power *= 4
    return n >= total


def griesmer_max_d(n, k):
    """Largest d with n >= sum_{i<k} ceil(d / 4^i).

    The sum is nondecreasing in d and its first term is d, so the answer
    lies in [0, n] and is found by bisection.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    lo, hi = 0, n + 1  # griesmer_holds at lo, fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if griesmer_holds(n, k, mid):
            lo = mid
        else:
            hi = mid
    return lo


def sphere_packing_holds(n, k, d):
    radius = (d - 1) // 2
    volume = sum(3**i * comb(n, i) for i in range(radius + 1))
    return 4**k * volume <= 4**n


def sphere_packing_max_d(n, k):
    """Largest d <= n - k + 1 passing the sphere-packing test.

    The raw test is monotone in d, as the radius (d - 1) // 2 never
    decreases, but alone it passes d above n - k + 1: at k = n it passes
    d = 2.  The Singleton cap keeps the answer a distance some code can have.
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


# k -> (period, the residues of n mod period one below the Griesmer bound)
#
# k = 1 is a parity fact.  An [L, 1] code with no zero column is the one
# point of PG(0,4) with multiplicity L: its distance is L, and its Gram is
# the weight mod 2, so it is hull-1 exactly when L is even.
#
# k = 2 is a parity count.  An [L, 2] code with no zero column has
# multiplicities m on the 5 points of PG(1,4), at least two of them nonzero.
# Each nonzero codeword vanishes on the columns of one point, so the distance
# is >= d exactly when every m_i <= L - d.  The Gram blocks of the 5 points
# XOR to 0, one block has rank 1 and two have rank 2, so the code is hull-1
# exactly when 1 or 4 of the m_i are odd.  Zero columns change neither, and
# the largest such d over L <= n is this table's value at n.
_DEFICITS = {
    1: (2, frozenset({1})),
    2: (5, frozenset({0, 3})),
    3: (21, frozenset({0, 5, 6, 10, 11, 15, 16, 20})),
}

# n = 21s + 5 lengths settled by the length <= 35 classification; every
# other length of that k = 3 residue has its value as a lower bound only
_K3_RESIDUE5_SETTLED = frozenset({5, 26})


def k3_value(n):
    """D-value for dimension 3 at length n >= 4."""
    if n < 4:
        raise OutOfRangeError("need n >= 4 for k = 3")
    return dh_closed_form(n, 3)


def dh_closed_form(n, k):
    """Closed-form largest hull-1 distance, or None when not covered.

    Covers k in {1, 2, 3, n-1, n-2, n-3}; everything else is left to the
    n <= 12 table or to search.
    """
    if n < 2 or not 1 <= k <= n:
        return None
    if k <= 3 < n:
        period, deficit = _DEFICITS[k]
        t = n % period
        exact = (k, t) != (3, 5) or n in _K3_RESIDUE5_SETTLED
        return DhValue(griesmer_max_d(n, k) - (t in deficit), exact)
    if k == n - 1:
        return DhValue(2 - n % 2, True)
    if k == n - 2:
        return DhValue(2, True)
    if k == n - 3:
        # on the hull-1 dual [n, 3] side (n >= 7 here): d >= 3 exactly when
        # the dual's columns are n distinct points of PG(2,4), and one such
        # set is hull-1 for n <= 19 but none for n >= 20; d >= 4 needs a cap
        # of n >= 7 points, and a cap in PG(2,4) has at most 6
        return DhValue(3 if n <= 19 else 2, True)
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

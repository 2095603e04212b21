"""Binary EAQECC parameters derived from quaternary hull-1 codes.

A quaternary [n, k, d] code with one-dimensional Hermitian hull yields both
an [[n, k-1, d; n-k-1]] and an [[n, n-k-1, d_dual; k-1]] binary EAQECC.
"""

from dataclasses import dataclass

from . import witnesses
from .bounds import k3_value
from .code import LinearCode
from .exceptions import OutOfRangeError, WrongHullDimensionError
from .hull import hull_dim


@dataclass(frozen=True)
class EaqeccParams:
    n: int
    k: int
    d: int | None  # None: unknown, when min(k, n-k) exceeds the enumeration cap
    c: int

    def __str__(self):
        d = "?" if self.d is None else self.d
        return f"[[{self.n},{self.k},{d};{self.c}]]"


def pair_params(n, k, d, dual_d):
    """The [[n, k-1, d; n-k-1]] and [[n, n-k-1, dual_d; k-1]] EAQECCs of a
    hull-1 quaternary [n, k, d] code whose Hermitian dual has distance
    dual_d; either distance may be None (unknown)."""
    return (EaqeccParams(n, k - 1, d, n - k - 1),
            EaqeccParams(n, n - k - 1, dual_d, k - 1))


def derive_pair(c: LinearCode):
    """The two EAQECCs of a hull-1 code.

    Both distances come from one codeword enumeration; raises
    BudgetExceededError only when min(k, n - k) exceeds the enumeration cap.
    """
    dim = hull_dim(c)
    if dim != 1:
        raise WrongHullDimensionError(f"hull dimension is {dim}, need exactly 1")
    return pair_params(c.n, c.k, c.min_distance(),
                       c.dual_weight_distribution().min_nonzero_weight())


def corollary_family(s, t):
    """The [[21s+t, 2, d; 21s+t-4]] family member, with d the k = 3 hull-1
    distance of `bounds.k3_value` (a lower bound on the open t = 5 row)."""
    if not 0 <= t <= 20 or s < 0:
        raise OutOfRangeError("need s >= 0 and 0 <= t <= 20")
    n = 21 * s + t
    if n < 4:
        raise OutOfRangeError("family starts at length 4")
    return pair_params(n, 3, k3_value(n).d, None)[0]


# [d; c] cells for n <= 12, column index k = (quaternary dimension) - 1,
# transcribed literally.  The (10, 6) cell is printed as [3;3] in the source
# table but the derivation from a hull-1 [10, 7, 3] code forces c = 2; the
# corrected value is stored here and the discrepancy is noted in README.
_TABLE6 = {
    2: [(2, 0)],
    3: [(2, 1), (1, 0)],
    4: [(4, 2), (3, 1), (2, 0)],
    5: [(4, 3), (3, 2), (2, 1), (1, 0)],
    6: [(6, 4), (4, 3), (3, 2), (2, 1), (2, 0)],
    7: [(6, 5), (5, 4), (4, 3), (3, 2), (2, 1), (1, 0)],
    8: [(8, 6), (5, 5), (5, 4), (4, 3), (3, 2), (2, 1), (2, 0)],
    9: [(8, 7), (7, 6), (6, 5), (5, 4), (4, 3), (3, 2), (2, 1), (1, 0)],
    10: [(10, 8), (7, 7), (6, 6), (5, 5), (5, 4), (4, 3), (3, 2), (2, 1), (2, 0)],
    11: [(10, 9), (8, 8), (7, 7), (6, 6), (5, 5), (4, 4), (4, 3), (3, 2),
         (2, 1), (1, 0)],
    12: [(12, 10), (9, 9), (8, 8), (7, 7), (6, 6), (6, 5), (4, 4), (4, 3),
         (3, 2), (2, 1), (2, 0)],
}


def table6_cells():
    for n, row in _TABLE6.items():
        for k, dc in enumerate(row):
            yield n, k, dc


def table6_entry(n, k):
    """(d, c) for the n <= 12 EAQECC table, derived from the stored hull-1
    witness of the underlying quaternary [n, k+1] code; callers compare it
    with the literal table of `table6_cells`."""
    if n not in _TABLE6 or not 0 <= k < len(_TABLE6[n]):
        raise OutOfRangeError(f"no EAQECC table cell for (n={n}, k={k})")
    first, _ = derive_pair(witnesses.witness(n, k + 1))
    return first.d, first.c


# Reference parameters of previously known EAQECCs for the k = 2 comparison
# rows (from public code tables); each row pairs them with the parameters
# obtained here from the [n, 3] hull-1 code.
TABLE7_REFERENCE = {
    13: ([(13, 2, 4, 0), (13, 2, 5, 1), (13, 2, 6, 2), (13, 2, 8, 9)], (13, 3, 9)),
    14: ([(14, 2, 5, 0), (14, 2, 7, 2), (14, 2, 9, 9)], (14, 3, 10)),
    16: ([(16, 2, 6, 0), (16, 2, 8, 2), (16, 2, 10, 9)], (16, 3, 11)),
    17: ([(17, 2, 6, 0), (17, 2, 8, 2), (17, 2, 10, 9)], (17, 3, 12)),
    18: ([(18, 2, 6, 0), (18, 2, 8, 2), (18, 2, 10, 9)], (18, 3, 13)),
    19: ([(19, 2, 6, 0), (19, 2, 9, 2), (19, 2, 10, 9)], (19, 3, 14)),
    20: ([(20, 2, 6, 0), (20, 2, 10, 2)], (20, 3, 14)),
    22: ([(22, 2, 6, 0), (22, 2, 7, 1), (22, 2, 11, 2)], (22, 3, 16)),
}


def table7_comparison():
    """Comparison report: for each reference row, the EAQECC obtained here
    and whether it improves distance over every known entry of equal or
    larger entanglement."""
    report = []
    for n, (known, (qn, qk, qd)) in sorted(TABLE7_REFERENCE.items()):
        ours, _ = pair_params(qn, qk, qd, None)
        better_d = all(ours.d > kd for (_, _, kd, kc) in known if kc >= ours.c)
        smaller_c = all(ours.c < kc or ours.d > kd for (_, _, kd, kc) in known)
        report.append({
            "n": n,
            "ours": ours,
            "known": known,
            "better_distance_at_cost": better_d,
            "improves_tradeoff": smaller_c,
        })
    return report

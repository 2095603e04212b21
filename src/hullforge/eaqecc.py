"""Binary EAQECC parameters derived from quaternary hull-1 codes.

A quaternary [n, k, d] code with one-dimensional Hermitian hull yields both
an [[n, k-1, d; n-k-1]] and an [[n, n-k-1, d_dual; k-1]] binary EAQECC.
`pair_params` is the only place this formula is written: the n <= 12 table
(`table6_cells`) applies it to the exact distances of `bounds`, the k = 2
comparison rows (`table7_comparison`) to the corollary family, and `analyze`
prints its output through `EaqeccParams.__str__`.
"""

from dataclasses import dataclass

from . import witnesses
from .bounds import k3_value, table5_cells
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
    return pair_params(n, 3, k3_value(n).d, None)[0]


def table6_cells():
    """The n <= 12 EAQECC table as (n, k, (d, c)) cells, k = (quaternary
    dimension) - 1: the first code of `pair_params` applied to each exact
    hull-1 distance of `bounds.table5_cells`.  At (10, 6) this gives
    [3; 2], where the widely circulated rendering prints [3; 3]."""
    for n, k, d in table5_cells():
        first, _ = pair_params(n, k, d, None)
        yield n, k - 1, (first.d, first.c)


def table6_entry(n, k):
    """(d, c) for the n <= 12 EAQECC table, derived from the stored hull-1
    witness of the underlying quaternary [n, k+1] code; callers compare it
    with the table of `table6_cells`."""
    if not (2 <= n <= 12 and 0 <= k <= n - 2):
        raise OutOfRangeError(f"no EAQECC table cell for (n={n}, k={k})")
    first, _ = derive_pair(witnesses.witness(n, k + 1))
    return first.d, first.c


# Previously known EAQECCs of the k = 2 comparison rows, from public code
# tables; each row is compared with the corollary family member of length n.
TABLE7_REFERENCE = {
    13: [(13, 2, 4, 0), (13, 2, 5, 1), (13, 2, 6, 2), (13, 2, 8, 9)],
    14: [(14, 2, 5, 0), (14, 2, 7, 2), (14, 2, 9, 9)],
    16: [(16, 2, 6, 0), (16, 2, 8, 2), (16, 2, 10, 9)],
    17: [(17, 2, 6, 0), (17, 2, 8, 2), (17, 2, 10, 9)],
    18: [(18, 2, 6, 0), (18, 2, 8, 2), (18, 2, 10, 9)],
    19: [(19, 2, 6, 0), (19, 2, 9, 2), (19, 2, 10, 9)],
    20: [(20, 2, 6, 0), (20, 2, 10, 2)],
    22: [(22, 2, 6, 0), (22, 2, 7, 1), (22, 2, 11, 2)],
}


def table7_comparison():
    """Comparison report: for each reference row, the EAQECC obtained here
    and whether it improves distance over every known entry of equal or
    larger entanglement."""
    report = []
    for n, known in sorted(TABLE7_REFERENCE.items()):
        ours = corollary_family(*divmod(n, 21))
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

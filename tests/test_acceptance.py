"""Acceptance suite: one test (and one summary line) per release criterion.

Each criterion records a PASS/FAIL line that is printed after the run; the
tolerances are exact unless a criterion says otherwise.
"""

import time

import numpy as np
import pytest

import conftest
from hullforge import gf4, witnesses
from hullforge.bounds import (
    dh_closed_form,
    griesmer_max_d,
    table5_cells,
    table5_lookup,
)
from hullforge.code import LinearCode
from hullforge.construct import (
    MultiplicityVector,
    code_from_multiplicity,
    extend_simplex,
    fixture,
    fixture_names,
    verify_fixture,
)
from hullforge.eaqecc import derive_pair, table6_cells, table6_entry
from hullforge.hull import hull_dim, hull_information_set, is_even
from hullforge.search import (
    CounterexampleFound,
    NonexistenceCertificate,
    certify_nonexistence,
    exhaustive_dh,
    random_search,
)


def record(num, label, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" — {detail}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def test_criterion_01_fixture_verification():
    t_suite = time.time()
    bad = []
    slow = []
    names = fixture_names()
    for name in names:
        t0 = time.time()
        ok, results, claims = verify_fixture(fixture(name))
        elapsed = time.time() - t0
        if not ok:
            bad.append((name, results, claims))
        if elapsed >= 1.0:
            slow.append((name, elapsed))
    total = time.time() - t_suite
    record(1, "fixture corpus verification",
           len(names) == 22 and not bad and not slow and total < 30,
           f"22 fixtures, {total:.2f}s total" if not bad else f"bad: {bad}")


# largest Griesmer-attainable distance at dimension 3, by residue of n mod 21
_GRIESMER_K3 = {
    0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4, 7: 4, 8: 5, 9: 6, 10: 7,
    11: 8, 12: 8, 13: 9, 14: 10, 15: 11, 16: 12, 17: 12, 18: 13, 19: 14,
    20: 15,
}


def test_criterion_02_griesmer_residue_table():
    bad = []
    for s in range(6):
        for t in range(21):
            n = 21 * s + t
            if n < 3:
                continue
            if griesmer_max_d(n, 3) != 16 * s + _GRIESMER_K3[t]:
                bad.append(n)
    record(2, "Griesmer k=3 residue table (126 cells)", not bad,
           f"mismatches at n={bad}" if bad else "all cells exact")


def _case_table_vectors(s):
    # the 11 near-balanced patterns whose codes never have hull dimension 1
    return [
        (s - 1, s + 1, s + 1, s + 1, s + 1),
        (s + 1, s + 1, s - 1, s + 1, s + 1),
        (s + 1, s + 1, s + 1, s - 1, s + 1),
        (s + 1, s + 1, s + 1, s + 1, s - 1),
        (s, s, s + 1, s + 1, s + 1),
        (s + 1, s, s, s + 1, s + 1),
        (s + 1, s, s + 1, s, s + 1),
        (s + 1, s, s + 1, s + 1, s),
        (s + 1, s + 1, s, s, s + 1),
        (s + 1, s + 1, s, s + 1, s),
        (s + 1, s + 1, s + 1, s, s),
    ]


def test_criterion_03_k2_case_table():
    bad = []
    for s in (1, 2, 3):
        for m in _case_table_vectors(s):
            code = code_from_multiplicity(MultiplicityVector(2, m))
            if hull_dim(code) not in (0, 2):
                bad.append((s, m, hull_dim(code)))
        all_equal = code_from_multiplicity(MultiplicityVector(2, (s,) * 5))
        if gf4.hermitian_gram(all_equal.generator).any():
            bad.append((s, "all-equal", "nonzero gram"))
    record(3, "k=2 case-table vectors give hull dim in {0,2}, never 1",
           not bad, str(bad) if bad else "33 vectors + 3 all-equal checks")


def test_criterion_04_k2_exhaustion():
    bad = []
    t0 = time.time()
    for n in range(3, 14):
        got = exhaustive_dh(n, 2).best_d
        base = 4 * n // 5
        expect = base - 1 if n % 5 in (0, 3) else base
        if got != expect:
            bad.append((n, got, expect))
        if n <= 12 and got != table5_lookup(n, 2):
            bad.append((n, got, "table"))
    elapsed = time.time() - t0
    record(4, "k=2 exhaustion, 3 <= n <= 13", not bad and elapsed < 60,
           f"{elapsed:.2f}s" if not bad else str(bad))


# exact k=3 values for 4 <= n <= 22
_K3_REFERENCE = {
    4: 2, 5: 2, 6: 3, 7: 4, 8: 5, 9: 6, 10: 6, 11: 7, 12: 8, 13: 9,
    14: 10, 15: 10, 16: 11, 17: 12, 18: 13, 19: 14, 20: 14, 21: 15, 22: 16,
}


def test_criterion_05_k3_exhaustion():
    # one exhaustive_dh call solves the whole column, bottom-up
    t0 = time.time()
    column = conftest.exhaustive_column(22, 3)
    total = time.time() - t0
    bad = [(n, column[n].best_d, want) for n, want in _K3_REFERENCE.items()
           if column[n].best_d != want]
    record(5, "k=3 exhaustion, 4 <= n <= 22",
           not bad and total < 1800,
           f"total {total:.2f}s" if not bad else str(bad))


def test_criterion_06_nonexistence_certificates():
    bad = []
    for n, k, d in ((16, 3, 12), (20, 3, 15), (21, 3, 16)):
        result = certify_nonexistence(n, k, d)
        if not isinstance(result, NonexistenceCertificate):
            bad.append((n, k, d, type(result).__name__))
    counter = certify_nonexistence(12, 3, 8)
    if not (isinstance(counter, CounterexampleFound)
            and counter.witness.min_distance() >= 8
            and hull_dim(counter.witness) == 1):
        bad.append((12, 3, 8, type(counter).__name__))
    record(6, "nonexistence certificates + (12,3,8) counterexample", not bad,
           str(bad) if bad else "3 certificates, 1 counterexample")


def test_criterion_07_padding_law():
    bad = []
    for name in fixture_names():
        fx = fixture(name)
        if fx.claimed_k != 3:
            continue
        code = fx.code()
        d = code.min_distance()
        for s in (1, 2):
            ext = extend_simplex(code, s)
            if hull_dim(ext) != 1 or ext.min_distance() != d + 16 * s:
                bad.append((name, s))
    record(7, "simplex padding law over all k=3 fixtures, s in {1,2}",
           not bad, str(bad) if bad else "21 fixtures x 2 paddings")


def _expected_high_k(n, k):
    if k == 1:
        return n if n % 2 == 0 else n - 1
    if k == n - 1:
        return 2 if n % 2 == 0 else 1
    if k == n - 2:
        return 3 if n == 4 else 2
    if k == n - 3:
        if n == 4:
            return 4
        return 3 if n <= 19 else 2
    raise AssertionError(k)


def test_criterion_08_closed_form_consistency():
    bad = []
    for n, k, d in table5_cells():
        v = dh_closed_form(n, k)
        if v is not None and (not v.exact or v.d != d):
            bad.append((n, k, v))
    for n in range(4, 26):
        for k in (1, n - 1, n - 2, n - 3):
            if not 1 <= k <= n - 1:
                continue
            v = dh_closed_form(n, k)
            if v is None or not v.exact or v.d != _expected_high_k(n, k):
                bad.append((n, k, v))
    record(8, "closed forms agree with the table and boundary dimensions",
           not bad, str(bad) if bad else "all covered cells exact")


_BOLD_CELLS = {  # (n, binary k) -> (d, c)
    (8, 3): (4, 3), (9, 3): (5, 4), (10, 5): (4, 3), (11, 2): (7, 7),
    (12, 2): (8, 8), (12, 3): (7, 7), (12, 7): (4, 3),
}


def test_criterion_09_eaqecc_table():
    bad = []
    for n, k, expected in table6_cells():
        try:
            derived = table6_entry(n, k)
        except Exception as exc:  # noqa: BLE001
            bad.append((n, k, str(exc)))
            continue
        if derived != expected:
            bad.append((n, k, derived, expected))
    for (n, k), dc in _BOLD_CELLS.items():
        if table6_entry(n, k) != dc:
            bad.append(("bold", n, k))
    record(9, "EAQECC table reproduced from stored witnesses", not bad,
           str(bad)[:200] if bad else "66 cells + 7 highlighted cells")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(31337)
    violations = []
    # hull(C) == hull(dual) and even <=> self-orthogonal, 1000 random codes
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        g = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
        if not g.any():
            continue
        c = LinearCode.from_generator(g)
        dual = c.hermitian_dual()
        if dual.k and hull_dim(c) != hull_dim(dual):
            violations.append(("hull-dual", c))
        so = hull_dim(c) == c.k
        if is_even(c) != so:
            violations.append(("even-so", c))
        if dual.k and dual.hermitian_dual() != c:
            violations.append(("involution", c))
        gram = gf4.hermitian_gram(c.generator)
        if not np.array_equal(gram, gf4.conj_transpose(gram)):
            violations.append(("gram-symmetry", c))
    # hull drop by one on an information-set coordinate, 200 hull >= 1 codes
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, n))
        g = rng.integers(0, 4, size=(k, n), dtype=np.uint8)
        if not g.any():
            continue
        c = LinearCode.from_generator(g)
        h = hull_dim(c)
        if h < 1:
            continue
        pivots = hull_information_set(c)
        coord = pivots[0]
        if hull_dim(c.puncture({coord})) != h - 1:
            violations.append(("puncture-drop", c))
        shortened = c.shorten({coord})
        if shortened.k and hull_dim(shortened) != h - 1:
            violations.append(("shorten-drop", c))
        checked += 1
    record(10, "randomized property suites (1000 + 200 codes)",
           not violations, f"{len(violations)} violations" if violations
           else "zero violations")


def test_criterion_11_randomized_search():
    # gating: documented seed/budget reproduces the two easy middle cells
    bad = []
    for n, k, d, seed, budget in ((8, 4, 4, 7, 8192), (9, 5, 4, 11, 8192)):
        outcome = random_search(n, k, d, seed=seed, budget=budget)
        if outcome.witness is None or outcome.witness.min_distance() < d:
            bad.append((n, k, d))
    # stretch cells are reported from the stored corpus, not gating
    stretch = []
    for n, k in ((10, 5), (12, 6)):
        code = witnesses.witness(n, k)
        d = code.min_distance()
        ok = hull_dim(code) == 1 and d == table5_lookup(n, k)
        stretch.append(f"({n},{k}) stored witness d={d} {'ok' if ok else 'BAD'}")
    record(11, "randomized search reproduces (8,4,4) and (9,5,4)", not bad,
           "; ".join(stretch) if not bad else str(bad))

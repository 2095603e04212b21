"""Generate the stored witness corpus: one hull-1 generator matrix per cell
of the n <= 12 distance table, saved as src/hullforge/data/witnesses/W_[n,k,d].g4m.

Idempotent: existing verified files are kept.  Cells are filled by explicit
constructions where available, by exhaustive search for k <= 3, by duals and
zero-column padding of already-stored cells, and by randomized hill climbing
for the remaining middle dimensions.
"""

import sys
import time
from pathlib import Path

import numpy as np

from hullforge import gf4, matfmt
from hullforge.bounds import table5_cells, table5_lookup
from hullforge.code import LinearCode
from hullforge.construct import even_length_check_matrix, fixture, fixture_names
from hullforge.hull import hull_dim
from hullforge.search import _append_zero_column, exhaustive_dh, random_search

OUT = Path(__file__).resolve().parents[1] / "src/hullforge/data/witnesses"


def k1_witness(n):
    g = np.ones((1, n), dtype=np.uint8)
    if n % 2:
        g[0, 0] = 0
    return LinearCode.from_generator(g)


def load_stored(n, k):
    d = table5_lookup(n, k)
    path = OUT / f"W_[{n},{k},{d}].g4m"
    if path.exists():
        return LinearCode.from_generator(matfmt.parse(path.read_text()))
    return None


def verify(code, n, k):
    d = table5_lookup(n, k)
    return (code is not None and code.n == n and code.k == k
            and hull_dim(code) == 1 and code.min_distance() == d)


def hill_climb(n, k, target_d, seed, budget_rounds=40, stream_budget=20_000):
    """Randomized restarts plus steepest single-entry mutation climbing."""
    best = random_search(n, k, 1, seed=seed, budget=stream_budget).witness
    best_d = best.min_distance() if best is not None else 0
    rng = np.random.default_rng(seed + 1)
    for _ in range(budget_rounds):
        if best_d >= target_d:
            break
        # restart from a fresh random hull-1 code now and then
        g = None
        if best is None or rng.random() < 0.3:
            for _ in range(2000):
                cand = np.hstack([np.eye(k, dtype=np.uint8),
                                  rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)])
                if k - gf4.rank(gf4.hermitian_gram(cand)) == 1:
                    g = cand
                    break
        else:
            g = best.generator.copy()
        if g is None:
            continue
        cur = LinearCode.from_generator(g)
        cur_d = cur.min_distance()
        improved = True
        while improved and cur_d < target_d:
            improved = False
            order = rng.permutation(cur.n * cur.k * 4)
            for idx in order:
                pos, val = divmod(int(idx), 4)
                i, j = divmod(pos, cur.n)
                cand = cur.generator.copy()
                if cand[i, j] == val:
                    continue
                cand[i, j] = val
                if k - gf4.rank(gf4.hermitian_gram(cand)) != 1:
                    continue
                cc = LinearCode.from_generator(cand)
                if cc.k != k:
                    continue
                d = cc.min_distance()
                if d > cur_d:
                    cur, cur_d = cc, d
                    improved = True
                    break
        if cur_d > best_d:
            best, best_d = cur, cur_d
    return best if best_d >= target_d else None


def attempt(n, k):
    d = table5_lookup(n, k)
    # explicit constructions first
    if k == 1:
        return k1_witness(n)
    if k == n - 1:
        return k1_witness(n).hermitian_dual()
    if k == n - 2 and n >= 4:
        if n % 2 == 0:
            h = even_length_check_matrix(n)
            return LinearCode.from_generator(gf4.kernel(gf4.CONJ[h]))
        prev = load_stored(n - 1, k)
        if prev is not None:
            return _append_zero_column(prev)
    # fixtures transcribed from explicit matrices
    for name in fixture_names():
        fx = fixture(name)
        if (fx.claimed_n, fx.claimed_k, fx.claimed_d) == (n, k, d):
            return fx.code()
    if k <= 3:
        return exhaustive_dh(n, k).witness
    # zero-column padding when the shorter cell has the same distance
    if n - 1 >= k + 1 and table5_lookup(n - 1, k) == d:
        prev = load_stored(n - 1, k)
        if prev is not None:
            return _append_zero_column(prev)
    # the dual of a stored cell has the right dimension and hull; check d
    partner = load_stored(n, n - k)
    if partner is not None:
        dual = partner.hermitian_dual()
        if dual.min_distance() == d:
            return dual
    # randomized hill climbing with a documented seed
    return hill_climb(n, k, d, seed=1000 * n + k)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    missing = []
    # two passes so padding/dual reuse can pick up freshly stored cells
    for _ in range(2):
        for n, k, d in sorted(table5_cells()):
            path = OUT / f"W_[{n},{k},{d}].g4m"
            if path.exists():
                continue
            t0 = time.time()
            code = attempt(n, k)
            if not verify(code, n, k):
                continue
            matfmt.save(path, code.generator,
                        comment=f"hull-1 witness for [{n},{k},{d}]")
            print(f"stored {path.name}  ({time.time() - t0:.1f}s)")
        missing = [
            (n, k, d) for n, k, d in sorted(table5_cells())
            if not (OUT / f"W_[{n},{k},{d}].g4m").exists()
        ]
        if not missing:
            break
    if missing:
        print("MISSING:", missing)
        return 1
    print(f"corpus complete: {sum(1 for _ in OUT.glob('W_*.g4m'))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Generate the stored witness corpus: one hull-1 generator matrix per cell
of the n <= 12 distance table, saved as src/hullforge/data/witnesses/W_[n,k].g4m.

Idempotent: existing verified files are kept.  One pass in (n, k) order
fills cells by explicit constructions where available, by exhaustive search
for k <= 3, by duals and zero-column padding of already-stored cells, and by
the library's seeded `random_search` for the remaining middle dimensions.
Cells still missing after it go to simulated annealing, scored on the
search's packed kernels.  Every seed is fixed, so a run into an empty
directory reproduces the stored corpus byte for byte:

    python scripts/make_witnesses.py
"""

import sys
import time
from pathlib import Path

import numpy as np

from hullforge import gf4, matfmt
from hullforge.bounds import table5_cells, table5_lookup
from hullforge.code import LinearCode, _plane_weights
from hullforge.construct import even_length_check_matrix, fixture, fixture_names
from hullforge.hull import hull_dim
from hullforge.search import (_pad, _planes_hull_dim, _systematic_planes,
                              exhaustive_dh, random_search)

OUT = Path(__file__).resolve().parents[1] / "src/hullforge/data/witnesses"


def k1_witness(n):
    g = np.ones((1, n), dtype=np.uint8)
    if n % 2:
        g[0, 0] = 0
    return LinearCode.from_generator(g)


def cell_path(n, k):
    return OUT / f"W_[{n},{k}].g4m"


def load_stored(n, k):
    path = cell_path(n, k)
    if path.exists():
        return LinearCode.from_generator(matfmt.parse(path.read_text()))
    return None


def verify(code, n, k):
    d = table5_lookup(n, k)
    return (code is not None and code.n == n and code.k == k
            and hull_dim(code) == 1 and code.min_distance() == d)


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
            return _pad(prev, n)
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
            return _pad(prev, n)
    # the dual of a stored cell has the right dimension and hull; check d
    partner = load_stored(n, n - k)
    if partner is not None:
        dual = partner.hermitian_dual()
        if dual.min_distance() == d:
            return dual
    # the library's seeded randomized search
    return random_search(n, k, d, seed=1000 * n + k, budget=20_000).witness


def cost(a, n, d):
    """Weighted count of the nonzero codewords of [I | a] below d plus a
    penalty for hull dimension != 1, in Python ints."""
    planes = _systematic_planes(a)
    counts = _plane_weights(*planes, n).tolist()
    low = sum(counts[w] * 4 ** (d - w) for w in range(1, d))
    return low + 3 * 4 ** (d - 1) * abs(_planes_hull_dim(*planes) - 1)


def anneal(n, k, d, seed):
    """Simulated annealing on [I | A] by single-entry changes of A; the
    first state of cost 0 is returned."""
    steps, t0, t1 = 60_000, 6.0, 0.02  # steps, start and end temperature
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
    cur = cost(a, n, d)
    for step in range(steps):
        if cur == 0:
            # [I | A] is already in RREF
            return LinearCode(np.hstack([np.eye(k, dtype=np.uint8), a]))
        temp = t0 * (t1 / t0) ** (step / steps)
        i = int(rng.integers(k))
        j = int(rng.integers(k, n)) - k
        old = a[i, j]
        a[i, j] = (old + 1 + rng.integers(3)) % 4
        nxt = cost(a, n, d)
        if nxt <= cur or rng.random() < np.exp((cur - nxt) / (temp * 4 ** (d - 3))):
            cur = nxt
        else:
            a[i, j] = old
    return None


def missing_cells():
    return [(n, k, d) for n, k, d in sorted(table5_cells())
            if not cell_path(n, k).exists()]


def store(code, n, k, d, t0):
    """Save code as the witness of cell (n, k, d) if it verifies."""
    if not verify(code, n, k):
        return False
    path = cell_path(n, k)
    matfmt.save(path, code.generator, comment=f"hull-1 witness for [{n},{k},{d}]")
    print(f"stored {path.name}  ({time.time() - t0:.1f}s)", flush=True)
    return True


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for n, k, d in missing_cells():
        t0 = time.time()
        store(attempt(n, k), n, k, d, t0)
    for n, k, d in missing_cells():
        for i in range(12):
            t0 = time.time()
            found = anneal(n, k, d, seed=10_000 * n + 100 * k + i)
            print(f"({n},{k},{d}) anneal attempt {i}: "
                  f"{'hit' if found else 'miss'} ({time.time() - t0:.0f}s)",
                  flush=True)
            if store(found, n, k, d, t0):
                break
    missing = missing_cells()
    if missing:
        print("MISSING:", missing)
        return 1
    print(f"corpus complete: {sum(1 for _ in OUT.glob('W_*.g4m'))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Simulated annealing for the hard middle cells of the witness corpus.

Cost = weighted count of nonzero codewords below the target distance plus a
penalty for hull dimension != 1; a state with cost 0 is a valid witness and
is saved immediately.  Seeds are fixed so reruns are reproducible.
"""

import sys
import time
from pathlib import Path

import numpy as np

from hullforge import matfmt
from hullforge.code import LinearCode
from hullforge.hull import hull_dim

OUT = Path(__file__).resolve().parents[1] / "src/hullforge/data/witnesses"

TARGETS = [(10, 5, 5), (12, 6, 6), (12, 8, 4)]


def cost(g, n, k, d):
    code = LinearCode.from_generator(g)
    if code.k != k:
        return None, np.inf
    wd = code.weight_distribution()
    low = sum(wd.counts[w] * 4 ** (d - w) for w in range(1, d))
    hull = hull_dim(code)
    return code, low + 3 * 4 ** (d - 1) * abs(hull - 1)


def anneal(n, k, d, seed, steps=60_000, t0=6.0, t1=0.02):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
    g = np.hstack([np.eye(k, dtype=np.uint8), a])
    code, cur = cost(g, n, k, d)
    best = cur
    for step in range(steps):
        if cur == 0:
            return LinearCode.from_generator(g)
        temp = t0 * (t1 / t0) ** (step / steps)
        i = int(rng.integers(k))
        j = int(rng.integers(k, n))
        old = g[i, j]
        g[i, j] = (old + 1 + rng.integers(3)) % 4
        _, nxt = cost(g, n, k, d)
        if nxt <= cur or rng.random() < np.exp((cur - nxt) / (temp * 4 ** (d - 3))):
            cur = nxt
            best = min(best, cur)
        else:
            g[i, j] = old
    return None


def main():
    missing = []
    for n, k, d in TARGETS:
        path = OUT / f"W_[{n},{k},{d}].g4m"
        if path.exists():
            continue
        found = None
        for attempt in range(12):
            t0 = time.time()
            found = anneal(n, k, d, seed=10_000 * n + 100 * k + attempt)
            print(f"({n},{k},{d}) attempt {attempt}: "
                  f"{'hit' if found else 'miss'} ({time.time() - t0:.0f}s)",
                  flush=True)
            if found is not None:
                break
        if found is None:
            missing.append((n, k, d))
            continue
        # an explicit raise, not an assert, so `python -O` cannot store an
        # unverified matrix
        actual = (found.n, found.k, hull_dim(found), found.min_distance())
        if actual != (n, k, 1, d):
            raise AssertionError(f"annealed code has (n, k, hull dim, d) = "
                                 f"{actual}, expected {(n, k, 1, d)}")
        matfmt.save(path, found.generator,
                    comment=f"hull-1 witness for [{n},{k},{d}]")
        print(f"stored {path.name}")
    if missing:
        print("STILL MISSING:", missing)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

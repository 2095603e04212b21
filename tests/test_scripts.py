import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hullforge import matfmt, witnesses
from hullforge.bounds import table5_cells
from hullforge.code import LinearCode
from hullforge.hull import hull_dim
from hullforge.search import random_search

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src/hullforge/data/witnesses"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stored_text(n, k):
    return (CORPUS / f"W_[{n},{k}].g4m").read_text()


def witness_text(code, n, k, d):
    return matfmt.render(code.generator, comment=f"hull-1 witness for [{n},{k},{d}]")


@pytest.mark.parametrize("name", ["make_witnesses"])
def test_witness_scripts_import(name):
    # the script imports package helpers, private ones too; a renamed helper
    # must fail here, not at the next regeneration of the witness corpus
    assert callable(load_script(name).main)


def test_random_search_recipe_reproduces_corpus():
    # the seed and budget that make_witnesses.attempt passes for k >= 4
    code = random_search(11, 4, 6, seed=1000 * 11 + 4, budget=20_000).witness
    assert witness_text(code, 11, 4, 6) == stored_text(11, 4)


@pytest.mark.parametrize("n, k, d", [(10, 5, 5), (12, 6, 6), (12, 8, 4)])
def test_anneal_cost_matches_numpy_formula(monkeypatch, n, k, d):
    # the packed cost against the same formula on a LinearCode, on the
    # three cells the annealer fills
    cost = load_script("make_witnesses").cost
    rng = np.random.default_rng(1000 * n + k)
    values = set()
    for _ in range(40):
        a = rng.integers(0, 4, size=(k, n - k), dtype=np.uint8)
        a[rng.random(a.shape) < rng.random()] = 0
        code = LinearCode.from_generator(np.hstack([np.eye(k, dtype=np.uint8), a]))
        wd = code.weight_distribution()
        low = sum(wd.counts[w] * 4 ** (d - w) for w in range(1, d))
        want = low + 3 * 4 ** (d - 1) * abs(hull_dim(code) - 1)
        with monkeypatch.context() as patch:
            # the packed cost builds no code
            patch.setattr(LinearCode, "__init__", None)
            got = cost(a, n, d)
        assert type(got) is int and got == want
        values.add(want)
    assert len(values) > 10


def test_anneal_recipe_reproduces_corpus():
    # attempt 0 of the annealing seeds 10_000 n + 100 k + attempt
    code = load_script("make_witnesses").anneal(10, 5, 5, seed=100_500)
    assert witness_text(code, 10, 5, 5) == stored_text(10, 5)


def test_make_witnesses_attempts_each_cell_once(tmp_path, monkeypatch):
    # one attempt pass over the missing cells, then annealing for the cells
    # it left; stubbed with the stored witnesses, so no search runs
    script = load_script("make_witnesses")
    annealed = {(10, 5), (12, 6), (12, 8)}
    attempts, anneals = [], []

    def attempt(n, k):
        attempts.append((n, k))
        return None if (n, k) in annealed else witnesses.witness(n, k)

    def anneal(n, k, d, seed):
        anneals.append((n, k, seed))
        return witnesses.witness(n, k)

    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(script, "attempt", attempt)
    monkeypatch.setattr(script, "anneal", anneal)
    assert script.main() == 0
    cells = sorted((n, k) for n, k, _ in table5_cells())
    assert attempts == cells
    assert anneals == [(n, k, 10_000 * n + 100 * k) for n, k in sorted(annealed)]
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        sorted(path.name for path in CORPUS.iterdir())
    for n, k in cells:
        assert (tmp_path / f"W_[{n},{k}].g4m").read_text() == stored_text(n, k)

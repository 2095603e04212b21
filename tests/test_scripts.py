import importlib.util
from pathlib import Path

import pytest

from hullforge import matfmt
from hullforge.search import random_search

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src/hullforge/data/witnesses"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stored_text(n, k, d):
    return (CORPUS / f"W_[{n},{k},{d}].g4m").read_text()


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
    assert witness_text(code, 11, 4, 6) == stored_text(11, 4, 6)


def test_anneal_recipe_reproduces_corpus():
    # attempt 0 of the annealing seeds 10_000 n + 100 k + attempt
    code = load_script("make_witnesses").anneal(10, 5, 5, seed=100_500)
    assert witness_text(code, 10, 5, 5) == stored_text(10, 5, 5)

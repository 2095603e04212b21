import ast
from pathlib import Path

import pytest

import subspace_oracle
from hullforge.bounds import table5_lookup

# the package modules whose answers the oracle checks
ENGINES = {"search", "bounds", "hull", "code", "witnesses"}


def _subspaces(n, k):
    """The Gaussian binomial [n choose k]_4."""
    top = bottom = 1
    for i in range(k):
        top *= 4 ** (n - i) - 1
        bottom *= 4 ** (i + 1) - 1
    return top // bottom


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(1, n)])
def test_small_table_matches_subspace_oracle(n, k):
    # every subspace of GF(4)^n, 12,850 for n <= 5, each ranked on its own
    # Hermitian Gram: the largest hull-1 distance is the tabulated one
    subspaces, best = subspace_oracle.cell(n, k)
    assert subspaces == _subspaces(n, k)
    assert best == table5_lookup(n, k)


def test_subspace_oracle_imports_no_engine():
    path = Path(subspace_oracle.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    found = {name for name in names if ENGINES & set(name.split("."))}
    assert not found, f"the subspace oracle imports {found}"

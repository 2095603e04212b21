import ast
from pathlib import Path

from hullforge import search

# the k <= 3 walk and its callers: every value they compute is an exact
# int, so no true division and no float constant may appear in them
WALK = {"multiplicity_bounds", "_ProjectiveGeometry", "_enumerate_multiplicities",
        "_drop_tables", "exhaustive_dh", "certify_nonexistence"}


def test_walk_has_no_floats():
    # a float stops telling neighbouring ints apart from about 2^53, and
    # the walk takes n up to about 2^58
    path = Path(search.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in WALK]
    assert {node.name for node in defs} == WALK
    found = [
        f"{path.name}:{node.lineno}"
        for top in defs for node in ast.walk(top)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert not found, f"true division or float constants in the k <= 3 walk: {found}"

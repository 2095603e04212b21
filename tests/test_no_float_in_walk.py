import ast
from pathlib import Path

from hullforge import bounds, search

# the k <= 3 walk, its callers and its Gram table: every value they compute
# is an exact int, so no true division and no float constant may appear in
# them
WALK = {"multiplicity_bounds", "_gram_table", "_ProjectiveGeometry",
        "_enumerate_multiplicities", "_lane_bits", "_table_span", "_Restart",
        "_drop_tables", "exhaustive_dh", "certify_nonexistence"}


def _parse(module):
    path = Path(module.__file__)
    return path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _float_sites(path, tops):
    return [
        f"{path.name}:{node.lineno}"
        for top in tops for node in ast.walk(top)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]


def _walk_defs():
    path, tree = _parse(search)
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in WALK]
    assert {node.name for node in defs} == WALK
    return path, defs


def _naming(path, tops, names):
    """The sites in tops that name one of `names`, bare or as an attribute."""
    return [
        f"{path.name}:{node.lineno}"
        for top in tops for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
    ]


def test_walk_has_no_floats():
    # a float stops telling neighbouring ints apart from about 2^53, and
    # the walk takes n up to about 2^58
    path, defs = _walk_defs()
    found = _float_sites(path, defs)
    assert not found, f"true division or float constants in the k <= 3 walk: {found}"


def test_bounds_have_no_floats():
    # the walk's column bounds and the k <= 3 closed forms read the Griesmer
    # bound at n of about 2^54, where a float no longer holds every int
    path, tree = _parse(bounds)
    found = _float_sites(path, [tree])
    assert not found, f"true division or float constants in bounds: {found}"


def test_walk_reads_the_griesmer_bound_alone():
    # at k <= 3 sphere packing never binds below the Griesmer bound
    # (`exhaustive_dh`), so the walk and its callers name neither test
    path, defs = _walk_defs()
    found = _naming(path, defs, {"sphere_packing_max_d", "sphere_packing_holds"})
    assert not found, f"a sphere-packing bound in the k <= 3 walk: {found}"


def test_walk_ranks_no_gram_by_elimination():
    # the walk tests hull 1 with one bit of `_gram_table`'s bitmap, the one
    # statement of the rank <= 2 lemma; an elimination would be a second
    path, defs = _walk_defs()
    found = _naming(path, defs, {"_eliminate"})
    assert not found, f"an elimination in the k <= 3 walk: {found}"

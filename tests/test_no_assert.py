import ast
from pathlib import Path

import hullforge


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package may
    # rely on one; raise AssertionError (or a package error) explicitly
    found = []
    for path in sorted(Path(hullforge.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"

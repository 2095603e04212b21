import ast
from pathlib import Path

import hullforge

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package, or
    # in the scripts that store witnesses into it, may rely on one; raise
    # AssertionError (or a package error) explicitly
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts, f"no scripts found under {SCRIPTS}"
    paths = sorted(Path(hullforge.__file__).parent.rglob("*.py")) + scripts
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.parent.name}/{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package or scripts: {found}"

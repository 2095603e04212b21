import ast
import json
from pathlib import Path

import pytest

from conftest import run_python

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# after `import hullforge.cli`, the names the benchmark's tracer reads: for
# each layer whether its module is loaded, and for each bucketed name the
# module of what it resolves to, or None when it does not resolve
_RESOLVE_SCRIPT = """
import json, sys
import hullforge.cli
layers, names = json.loads(sys.argv[1])
loaded = {layer: f"hullforge.{layer}" in sys.modules for layer in layers}
found = {}
for name in names:
    layer, *path = name.split(".")
    obj = sys.modules.get(f"hullforge.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    found[name] = getattr(obj, "__module__", None)
print(json.dumps([loaded, found]))
"""


def _tracer_constants():
    constants = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "BUCKETS"):
                constants[target.id] = ast.literal_eval(node.value)
    return constants["LAYERS"], constants["BUCKETS"]


def test_tracer_layers_load_with_the_cli():
    # the tracer wraps the functions of sys.modules["hullforge.<layer>"]
    # after importing the CLI, and keeps only those whose __module__ is that
    # layer's module, so a layer the CLI stops importing, or a bucketed
    # function moved to another module, silently drops out of the benchmark
    if not TRACER.is_file():
        pytest.skip("no bench/tracer.py in this checkout")
    layers, buckets = _tracer_constants()
    done = run_python("-c", _RESOLVE_SCRIPT, json.dumps([list(layers), list(buckets)]))
    assert done.returncode == 0, done.stderr
    loaded, found = json.loads(done.stdout)
    assert loaded == {layer: True for layer in layers}
    assert found == {name: f"hullforge.{name.split('.')[0]}" for name in buckets}
    assert {name.split(".")[0] for name in buckets} <= set(layers)
